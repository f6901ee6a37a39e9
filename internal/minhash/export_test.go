package minhash

// Hash64 exposes the sketch hash to the external tests' oracle.
var Hash64 = hash64
