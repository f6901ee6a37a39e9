package main

import (
	"fmt"
	"strconv"
)

// outputKind is how a batch solve reports its answer.
type outputKind int

const (
	pairsTopK      outputKind = iota // stdout pair list of the -top-k best pairs
	pairsThreshold                   // stdout pair list of the pairs at or above -threshold
	matrixTSV                        // full similarity matrix written with -output
)

// workload is one file-to-answer scenario: a batch stage that runs the
// shipped similarityatscale binary over a generated sample directory, and a
// serve stage that indexes the reference corpus and queries it through the
// shipped similarityd binary.
type workload struct {
	Name string
	Why  string

	// Batch is the shape of the sample directory the batch stage solves.
	// When BatchIsCorpus is set the batch stage solves the corpus itself.
	Batch         shape
	BatchIsCorpus bool
	Ranks         int // > 1: one TCP rank process per rank, started by the harness
	Output        outputKind
	TopK          int // pairsTopK only
	// Engine is the engine configuration, given to the shipped binary as
	// flags (see flags) and to the in-process traced run as options.
	Engine engineSpec

	Serve serveSpec
}

// engineSpec holds the engine and ingest options of a workload.
type engineSpec struct {
	Batches  int
	Prefetch int
	Workers  int // 0 = the engine's default, one per CPU
	SketchK  int // > 0: MinHash-prescreen the thresholded run
}

// flags spells the workload's engine configuration and output mode as
// similarityatscale flags.
func (w workload) flags() []string {
	f := []string{"-batches", strconv.Itoa(w.Engine.Batches), "-prefetch", strconv.Itoa(w.Engine.Prefetch)}
	if w.Engine.Workers > 0 {
		f = append(f, "-workers", strconv.Itoa(w.Engine.Workers))
	}
	switch w.Output {
	case pairsTopK:
		f = append(f, "-top-k", strconv.Itoa(w.TopK))
	case pairsThreshold:
		f = append(f, "-threshold", strconv.FormatFloat(queryThreshold, 'g', -1, 64))
	}
	if w.Engine.SketchK > 0 {
		f = append(f, "-sketch-k", strconv.Itoa(w.Engine.SketchK))
	}
	return f
}

// serveSpec sizes the serve stage: the reference corpus and the two
// closed-loop traffic phases.
type serveSpec struct {
	Corpus       shape
	SketchK      int
	TopK         int
	Starts       int // similarityd starts; the last one serves the phases
	Queries      int // distinct queries generated; the phases cycle through them
	PhaseR       int // phase R: queries sent, split over the clients
	StormQueries int // phase S: minimum queries of the querying client
	Appends      int // phase S: appends of the appending client
}

// minSolves is the floor on measured solves per run.
const minSolves = 5

// corpusFull is the reference corpus every workload serves: a Kingsford-like
// hypersparse collection small enough that a served query costs about a
// millisecond, so phase R reaches its query count within the run.
var corpusFull = serveSpec{
	Corpus:       shape{N: 256, M: 1 << 22, Density: 768.0 / (1 << 22), ColVar: 0.2},
	SketchK:      256,
	TopK:         10,
	Starts:       105,
	Queries:      4000,
	PhaseR:       6000,
	StormQueries: 1600,
	Appends:      200,
}

var corpusSmoke = serveSpec{
	Corpus:       shape{N: 48, M: 1 << 16, Density: 256.0 / (1 << 16), ColVar: 0.2},
	SketchK:      64,
	TopK:         10,
	Starts:       8,
	Queries:      60,
	PhaseR:       60,
	StormQueries: 20,
	Appends:      12,
}

// workloads returns the four workloads at full or smoke size.
func workloads(smoke bool) []workload {
	serve := corpusFull
	sparse := shape{N: 192, M: 1 << 26, Density: 4e-4, ColVar: 0.2}
	dense := shape{N: 4000, M: 1 << 16, Density: 0.0125}
	grid := shape{N: 192, M: 1 << 24, Density: 6e-4, ColVar: 0.2}
	if smoke {
		serve = corpusSmoke
		sparse = shape{N: 24, M: 1 << 20, Density: 1e-3, ColVar: 0.2}
		dense = shape{N: 96, M: 1 << 12, Density: 0.05}
		grid = shape{N: 32, M: 1 << 18, Density: 1.2e-3, ColVar: 0.2}
	}
	return []workload{
		{
			Name:   "sparse-files",
			Why:    "192 samples over a 2^26 universe, 8 batches read out-of-core with eviction and reloads: ingest and the slice/compact/pack batch stage dominate, the Gram kernel is a small share",
			Batch:  sparse,
			Output: pairsTopK,
			TopK:   100,
			Engine: engineSpec{Batches: 8, Prefetch: 32},
			Serve:  serve,
		},
		{
			Name:   "dense-mem",
			Why:    "4000 samples over a 2^16 universe, every column a dense slab and every file read once: the dense Gram kernel and popcount are over half the solve, the opposite use of the layers sparse-files stresses",
			Batch:  dense,
			Output: pairsThreshold,
			Engine: engineSpec{Batches: 2},
			Serve:  serve,
		},
		{
			Name:   "grid-tcp",
			Why:    "four rank processes over loopback TCP with a full gather to a TSV: the only workload where dist, bsp and tcptransport run; byte counts repeat exactly",
			Batch:  grid,
			Ranks:  4,
			Output: matrixTSV,
			Engine: engineSpec{Batches: 4, Workers: 1},
			Serve:  serve,
		},
		{
			Name:          "serve-mixed",
			Why:           "the batch stage builds the served corpus itself (MinHash-prescreened run that writes the index with -index-out), so batch prescreen, index emission and the query service meet in one dataset",
			Batch:         serve.Corpus,
			BatchIsCorpus: true,
			Output:        pairsThreshold,
			Engine:        engineSpec{Batches: 1, SketchK: serve.SketchK},
			Serve:         serve,
		},
	}
}

func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads(smoke) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want sparse-files, dense-mem, grid-tcp, serve-mixed or all)", name)
}
