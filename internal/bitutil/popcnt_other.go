//go:build !amd64 || noasm

package bitutil

// popcountAndBlockAsm is never reached in this build: no assembly kernel
// is installed, so PopcountAndBlock always takes the portable block kernel.
func popcountAndBlockAsm(out *[16]int64, a, b *[4][]uint64) { popcountAndBlockGo(out, a, b) }
