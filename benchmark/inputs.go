package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"genomeatscale"
	"genomeatscale/internal/samplefile"
	"genomeatscale/internal/synth"
)

// shape describes one generated sample collection.
type shape struct {
	N       int     // samples
	M       uint64  // attribute universe
	Density float64 // probability that an attribute is present in a sample
	ColVar  float64 // σ of the log-normal per-sample density multiplier
}

// plantedTargets are the Jaccard similarities of the planted pairs. Six lie
// above the 0.5 threshold the thresholded runs and queries use, two below.
var plantedTargets = []float64{0.95, 0.9, 0.8, 0.7, 0.6, 0.55, 0.4, 0.3}

// pair is one sample pair with its exact Jaccard similarity.
type pair struct {
	I, J    int
	Jaccard float64
}

// dataset is a generated sample collection with its planted pairs. It
// satisfies core.Dataset and index.Source.
type dataset struct {
	shape
	names   []string
	samples [][]uint64 // sorted, duplicate-free
	planted []pair
	nnz     int64
}

func (d *dataset) NumSamples() int         { return len(d.samples) }
func (d *dataset) NumAttributes() uint64   { return d.M }
func (d *dataset) Sample(i int) []uint64   { return d.samples[i] }
func (d *dataset) SampleName(i int) string { return d.names[i] }

// bernoulliSet draws a sorted set over [0, m) in which every attribute is
// present independently with probability p (the paper's synthetic model),
// by sampling the geometric gaps between successive members — O(|set|),
// sorted and duplicate-free by construction.
func bernoulliSet(rng *synth.RNG, m uint64, p float64) []uint64 {
	if p <= 0 {
		return nil
	}
	p = math.Min(p, 1)
	out := make([]uint64, 0, int(float64(m)*p*1.05)+16)
	logq := math.Log1p(-p) // -Inf at p = 1: every gap is then zero
	for pos := uint64(0); ; pos++ {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		gap := math.Log(u) / logq
		if gap >= float64(m-pos) {
			return out
		}
		pos += uint64(gap)
		out = append(out, pos)
	}
}

// layoutSeed fixes where the large and small samples and the planted pairs
// sit in a collection. The layout is a property of the shape, the same for
// every run seed: how many samples are co-resident, how batches balance and
// so how long a solve takes and how much memory it needs would otherwise
// vary with the seed by more than a regression bound. The run seed decides
// every sample's contents.
const layoutSeed = 0x1a7007

// densityMultipliers returns n log-normal(σ) multipliers: the n evenly
// spaced quantiles of the distribution, in the order rng shuffles them into.
func densityMultipliers(rng *synth.RNG, n int, sigma float64) []float64 {
	mult := make([]float64, n)
	for k := range mult {
		z := math.Sqrt2 * math.Erfinv(2*(float64(k)+0.5)/float64(n)-1)
		mult[k] = math.Exp(sigma * z)
	}
	for k := n - 1; k > 0; k-- {
		j := rng.Intn(k + 1)
		mult[k], mult[j] = mult[j], mult[k]
	}
	return mult
}

// genDataset generates the collection of the given shape: sample sizes and
// the positions of the len(plantedTargets) planted pairs come from the
// shape's fixed layout, every value from seed.
func genDataset(sh shape, prefix string, seed uint64) (*dataset, error) {
	if sh.N < 2*len(plantedTargets) {
		return nil, fmt.Errorf("shape needs at least %d samples to plant its pairs, got %d", 2*len(plantedTargets), sh.N)
	}
	rng, layout := synth.NewRNG(seed), synth.NewRNG(layoutSeed)
	d := &dataset{shape: sh, names: make([]string, sh.N), samples: make([][]uint64, sh.N)}
	mult := densityMultipliers(layout, sh.N, sh.ColVar)
	for i := range d.samples {
		d.names[i] = fmt.Sprintf("%s%05d", prefix, i)
		d.samples[i] = bernoulliSet(rng, sh.M, sh.Density*mult[i])
	}
	// The planted pairs overwrite 2·len(plantedTargets) distinct samples
	// chosen by a partial shuffle.
	order := make([]int, sh.N)
	for i := range order {
		order[i] = i
	}
	size := max(1, int(math.Round(float64(sh.M)*sh.Density)))
	for k, target := range plantedTargets {
		for s := 2 * k; s < 2*k+2; s++ {
			j := s + layout.Intn(sh.N-s)
			order[s], order[j] = order[j], order[s]
		}
		i, j := order[2*k], order[2*k+1]
		if i > j {
			i, j = j, i
		}
		x, y := synth.PairWithJaccard(rng, sh.M, size, target)
		slices.Sort(x)
		slices.Sort(y)
		d.samples[i], d.samples[j] = x, y
		d.planted = append(d.planted, pair{I: i, J: j, Jaccard: genomeatscale.ExactJaccard(x, y)})
	}
	for _, s := range d.samples {
		d.nnz += int64(len(s))
	}
	return d, nil
}

// randomPairs returns count seeded sample pairs with their exact Jaccard
// similarity — the part of the oracle that covers the unplanted background.
func (d *dataset) randomPairs(rng *synth.RNG, count int) []pair {
	out := make([]pair, 0, count)
	for len(out) < count {
		i, j := rng.Intn(d.N), rng.Intn(d.N)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		out = append(out, pair{I: i, J: j, Jaccard: genomeatscale.ExactJaccard(d.samples[i], d.samples[j])})
	}
	return out
}

// writeSamples writes every sample as dir/<name>.smp in the binary
// encoding and returns the bytes on disk and a digest of the files.
//
// The files are overwritten in place and never deleted. A run rewrites the
// same few thousand names several times, and on the ext4 volumes these
// runs see, unlinking or truncating that many flushed files slows every
// file creation for the next ten seconds or more — set-up time then
// measures the file system's mood, not the set-up. samplefile.WriteBinary
// stays the only encoder: each sample is encoded into one scratch file
// beside the directory and its bytes copied over the sample's own file.
func writeSamples(dir string, d *dataset) (int64, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, "", err
	}
	want := make(map[string]bool, d.N)
	for _, name := range d.names {
		want[name+".smp"] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", err
	}
	for _, e := range entries {
		if !want[e.Name()] {
			// Left by a run of another size; the solve globs the directory.
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return 0, "", err
			}
		}
	}
	scratch := dir + ".scratch"
	h := sha256.New()
	var total int64
	for i, vals := range d.samples {
		if err := samplefile.WriteBinary(scratch, vals); err != nil {
			return 0, "", err
		}
		data, err := os.ReadFile(scratch)
		if err != nil {
			return 0, "", err
		}
		if err := overwrite(filepath.Join(dir, d.names[i]+".smp"), data); err != nil {
			return 0, "", err
		}
		total += int64(len(data))
		fmt.Fprintf(h, "%s %d\n", d.names[i], len(data))
		h.Write(data)
	}
	return total, hex.EncodeToString(h.Sum(nil)), nil
}

// overwrite replaces the file's contents without unlinking or truncating
// it first, so its blocks are reused.
func overwrite(path string, data []byte) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Truncate(int64(len(data)))
}

// queryThreshold is the similarity threshold of the gated quarter of the
// queries and of the thresholded batch runs.
const queryThreshold = 0.5

// query is one /v1/query request: a seeded perturbation of corpus sample
// Source, so the exact answer is known to contain Source at the top.
type query struct {
	Source    int
	Values    []uint64
	Threshold float64 // 0 (top-k only) or queryThreshold
	Body      []byte  // the encoded POST body
}

type queryBody struct {
	Values    []uint64 `json:"values"`
	TopK      int      `json:"top_k"`
	Threshold float64  `json:"threshold,omitempty"`
}

// perturb keeps each value of base with probability keep and tops the set
// up with fresh values, giving a Jaccard similarity near keep/(2−keep).
func perturb(rng *synth.RNG, base []uint64, m uint64, keep float64) []uint64 {
	out := make([]uint64, 0, len(base)+16)
	for _, v := range base {
		if rng.Float64() < keep {
			out = append(out, v)
		}
	}
	out = append(out, bernoulliSet(rng, m, float64(len(base)-len(out))/float64(m))...)
	slices.Sort(out)
	return slices.Compact(out)
}

// genQueries derives count queries from the corpus: each perturbs a seeded
// sample keeping 80–95 % of its values (similarity 0.67–0.90 to its
// source), and every fourth is thresholded so the sketch gate runs.
func genQueries(rng *synth.RNG, corpus *dataset, count, topK int) ([]query, error) {
	out := make([]query, count)
	for k := range out {
		q := &out[k]
		q.Source = rng.Intn(corpus.N)
		q.Values = perturb(rng, corpus.samples[q.Source], corpus.M, 0.8+0.15*rng.Float64())
		if k%4 == 3 {
			q.Threshold = queryThreshold
		}
		body, err := json.Marshal(queryBody{Values: q.Values, TopK: topK, Threshold: q.Threshold})
		if err != nil {
			return nil, err
		}
		q.Body = body
	}
	return out, nil
}

// appendSample is one /v1/append request.
type appendSample struct {
	Name   string
	Values []uint64
	Body   []byte
}

type appendBody struct {
	Name   string   `json:"name"`
	Values []uint64 `json:"values"`
}

// genAppends draws count fresh samples of the corpus's shape.
func genAppends(rng *synth.RNG, corpus *dataset, count int) ([]appendSample, error) {
	out := make([]appendSample, count)
	for k := range out {
		a := &out[k]
		a.Name = fmt.Sprintf("a%05d", k)
		a.Values = bernoulliSet(rng, corpus.M, corpus.Density)
		body, err := json.Marshal(appendBody{Name: a.Name, Values: a.Values})
		if err != nil {
			return nil, err
		}
		a.Body = body
	}
	return out, nil
}
