package genomeatscale

// This file is the benchmark harness required to regenerate every table and
// figure of the paper's evaluation (Section V). Each benchmark wraps the
// corresponding generator in internal/figures, which combines measured runs
// of the distributed pipeline on scaled dataset proxies with cost-model
// projections at the paper's full scale. Custom metrics expose the
// quantities the paper reports (per-batch seconds, projected totals,
// communication volume). `cmd/benchfigs` prints the same tables as text.
//
//	go test -bench=. -benchmem ./...

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/core"
	"genomeatscale/internal/dataset"
	"genomeatscale/internal/figures"
	"genomeatscale/internal/genome"
	"genomeatscale/internal/minhash"
	"genomeatscale/internal/semiring"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/synth"
)

// reportCell parses the leading float of a formatted cell ("3.2 s") and
// reports it as a benchmark metric.
func reportCell(b *testing.B, tab figures.Table, row, col int, unit string) {
	b.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		return
	}
	fields := strings.Fields(tab.Rows[row][col])
	if len(fields) == 0 {
		return
	}
	if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
		b.ReportMetric(v, unit)
	}
}

// --- Table II -----------------------------------------------------------------

func BenchmarkTable2ToolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := figures.Table2()
		if len(tab.Rows) != 4 {
			b.Fatal("unexpected Table II contents")
		}
	}
}

// --- Figure 2 -----------------------------------------------------------------

func benchFigure(b *testing.B, gen func(figures.Scale) ([]figures.Table, error)) []figures.Table {
	b.Helper()
	var tables []figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = gen(figures.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

func BenchmarkFig2aKingsfordStrongScaling(b *testing.B) {
	tables := benchFigure(b, figures.Fig2aKingsfordStrongScaling)
	// Projected total hours at the paper's sweet-spot region (32 nodes, row 5)
	// and measured per-batch seconds at the largest scaled rank count.
	reportCell(b, tables[0], 5, 5, "proj-total-h@32nodes")
	meas := tables[1]
	reportCell(b, meas, len(meas.Rows)-1, 3, "meas-batch-s")
}

func BenchmarkFig2bBIGSIStrongScaling(b *testing.B) {
	tables := benchFigure(b, figures.Fig2bBIGSIStrongScaling)
	reportCell(b, tables[0], len(tables[0].Rows)-1, 5, "proj-total-d@1024nodes")
	meas := tables[1]
	reportCell(b, meas, len(meas.Rows)-1, 5, "meas-comm-mib")
}

func BenchmarkFig2cBatchSensitivityKingsford(b *testing.B) {
	tables := benchFigure(b, figures.Fig2cBatchSensitivityKingsford)
	reportCell(b, tables[0], 0, 5, "proj-total-h@16384batches")
	reportCell(b, tables[0], len(tables[0].Rows)-1, 5, "proj-total-h@1024batches")
}

func BenchmarkFig2dBatchSensitivityBIGSI(b *testing.B) {
	tables := benchFigure(b, figures.Fig2dBatchSensitivityBIGSI)
	reportCell(b, tables[0], 0, 5, "proj-total-d@262144batches")
	reportCell(b, tables[0], len(tables[0].Rows)-1, 5, "proj-total-d@16384batches")
}

func BenchmarkFig2eSyntheticStrongScaling(b *testing.B) {
	tables := benchFigure(b, figures.Fig2eSyntheticStrongScaling)
	reportCell(b, tables[0], 0, 5, "proj-total-h@1node")
	reportCell(b, tables[0], len(tables[0].Rows)-1, 5, "proj-total-h@64nodes")
}

func BenchmarkFig2fSyntheticWeakScaling(b *testing.B) {
	tables := benchFigure(b, figures.Fig2fSyntheticWeakScaling)
	// Work-per-rank growth factor at the largest scale (×64 in the paper).
	proj := tables[0]
	last := proj.Rows[len(proj.Rows)-1][3]
	if idx := strings.Index(last, "×"); idx >= 0 {
		factor := strings.TrimSuffix(last[idx+len("×"):], ")")
		if v, err := strconv.ParseFloat(factor, 64); err == nil {
			b.ReportMetric(v, "work-per-rank-growth")
		}
	}
}

func BenchmarkFig3SparsitySweep(b *testing.B) {
	tables := benchFigure(b, func(s figures.Scale) ([]figures.Table, error) { return figures.Fig3SparsitySweep(s) })
	proj := tables[0]
	reportCell(b, proj, 0, 2, "proj-total-s@p=1e-4")
	reportCell(b, proj, len(proj.Rows)-1, 2, "proj-total-s@p=1e-2")
}

// --- Section V-D and accuracy ----------------------------------------------------

func BenchmarkMCDRAMAblation(b *testing.B) {
	var tab figures.Table
	for i := 0; i < b.N; i++ {
		tab = figures.MCDRAMAblation()
	}
	if len(tab.Rows) > 0 {
		slow := strings.TrimSuffix(tab.Rows[0][3], "%")
		if v, err := strconv.ParseFloat(slow, 64); err == nil {
			b.ReportMetric(v, "slowdown-%")
		}
	}
}

func BenchmarkAccuracyExactVsMinHash(b *testing.B) {
	var tab figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = figures.AccuracyExactVsMinHash(figures.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Worst small-sketch error on the most similar pair (last row).
	reportCell(b, tab, len(tab.Rows)-1, 5, "minhash-error-s100")
}

// --- Ablations -----------------------------------------------------------------

func BenchmarkAblationBitmask(b *testing.B) {
	var tab figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = figures.AblationBitmask(figures.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCell(b, tab, 0, 2, "comm-mib-b1")
	reportCell(b, tab, len(tab.Rows)-1, 2, "comm-mib-b64")
}

func BenchmarkAblationReplication(b *testing.B) {
	var tab figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = figures.AblationReplication(figures.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCell(b, tab, 0, 5, "comm-mib-c1")
	reportCell(b, tab, len(tab.Rows)-1, 5, "comm-mib-c8")
}

func BenchmarkAblationCompressionStats(b *testing.B) {
	var tab figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = figures.CompressionStats(figures.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCell(b, tab, 0, 6, "packed-words-per-nnz")
}

// --- Kernel microbenchmarks -------------------------------------------------------
// These cover the individual building blocks whose costs the analysis in
// Section III-C reasons about.

func benchmarkProxy(b *testing.B) *core.InMemoryDataset {
	b.Helper()
	ds, err := dataset.Kingsford().Generate(dataset.ScaledConfig{
		Samples: 128, Attributes: 100_000, DensityScale: 20, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkSequentialPipeline(b *testing.B) {
	ds := benchmarkProxy(b)
	// workers=1 is the historical serial pipeline; workers=0 uses one
	// shared-memory worker per CPU for the Gram kernel, per-column packing
	// and the Eq. 2 finalization.
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine, err := NewEngine(WithBatches(4), WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Similarity(context.Background(), ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDistributedPipeline8Ranks(b *testing.B) {
	benchDiscard(b, benchmarkProxy(b), WithBatches(4), WithProcs(8), WithReplication(2))
}

// benchDiscard times the pipeline alone: each iteration streams into the
// discarding sink, so no output is assembled.
func benchDiscard(b *testing.B, ds Dataset, options ...Option) {
	b.Helper()
	engine, err := NewEngine(options...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Stream(context.Background(), ds, Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingVsGatherPeakOutput runs the distributed pipeline once
// per iteration in streaming TopK mode and reports the peak resident
// output footprint against the 3n² words a full gather holds at rank 0 —
// the memory claim of the Engine.Stream API, also recorded in the
// BENCH_kernels.json artifact by cmd/benchkernels.
func BenchmarkStreamingVsGatherPeakOutput(b *testing.B) {
	ds := benchmarkProxy(b)
	engine, err := NewEngine(WithProcs(8), WithReplication(2), WithBatches(4))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	gatherWords := 3 * int64(ds.NumSamples()) * int64(ds.NumSamples())
	var peak int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Stream(ctx, ds, TopK(10))
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Stats.PeakTileWords
	}
	b.ReportMetric(float64(peak), "peak-tile-words")
	b.ReportMetric(float64(gatherWords)/float64(peak), "gather-vs-stream-mem-ratio")
}

func BenchmarkDistributedPipeline12Ranks3Layers(b *testing.B) {
	// The replicated 2×2×3 grid: exercises the inter-layer reduction and the
	// panel broadcasts of internal/dist, the hot path of the paper's c > 1
	// ablation (Section V-C).
	benchDiscard(b, benchmarkProxy(b), WithBatches(4), WithProcs(12), WithReplication(3))
}

func BenchmarkExactJaccardBaseline(b *testing.B) {
	ds := benchmarkProxy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExactJaccard(ds)
	}
}

// kernelProxy builds a random packed batch matrix for the Gram kernel
// microbenchmarks.
func kernelProxy(seed uint64, rows, cols, perCol int) *bitmat.Packed {
	rng := synth.NewRNG(seed)
	rowsPerCol := make([][]int, cols)
	for j := range rowsPerCol {
		seen := map[int]bool{}
		for len(rowsPerCol[j]) < perCol {
			r := rng.Intn(rows)
			if !seen[r] {
				seen[r] = true
				rowsPerCol[j] = append(rowsPerCol[j], r)
			}
		}
		sort.Ints(rowsPerCol[j])
	}
	return bitmat.PackColumns(rowsPerCol, rows, 64)
}

func BenchmarkPackedGramKernel(b *testing.B) {
	packed := kernelProxy(2, 4000, 160, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed.Gram()
	}
}

// BenchmarkPackedGramKernelWorkers measures the tiled multi-core kernel at
// fixed worker counts. Compare the workers=1 and workers=4 sub-benchmark
// times on a ≥ 4-core runner; BenchmarkGramKernelSpeedupWorkers4 reports
// the ratio directly.
func BenchmarkPackedGramKernelWorkers(b *testing.B) {
	packed := kernelProxy(2, 8000, 256, 400)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			acc := sparse.MustDense[int64](packed.Cols, packed.Cols)
			for i := 0; i < b.N; i++ {
				packed.GramAccumulateWorkers(acc, workers)
			}
		})
	}
}

// BenchmarkGramKernelSpeedupWorkers4 times the serial and the 4-worker
// kernel back to back on the same input and records the speedup and the
// CPU count as benchmark metrics, so the multi-core gain (or a
// single-core runner explaining its absence) is visible in every bench
// log.
func BenchmarkGramKernelSpeedupWorkers4(b *testing.B) {
	packed := kernelProxy(2, 8000, 256, 400)
	serialAcc := sparse.MustDense[int64](packed.Cols, packed.Cols)
	parAcc := sparse.MustDense[int64](packed.Cols, packed.Cols)
	// Warm both kernels (and the packed matrix's cache residency) before
	// timing, so the single-sample CI smoke run (-benchtime 1x) does not
	// charge the cold-start cost to whichever variant runs first.
	packed.GramAccumulateWorkers(serialAcc, 1)
	packed.GramAccumulateWorkers(parAcc, 4)
	serialAcc, parAcc = sparse.MustDense[int64](packed.Cols, packed.Cols), sparse.MustDense[int64](packed.Cols, packed.Cols)
	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		packed.GramAccumulateWorkers(serialAcc, 1)
		serial += time.Since(t0)
		t1 := time.Now()
		packed.GramAccumulateWorkers(parAcc, 4)
		parallel += time.Since(t1)
	}
	b.StopTimer()
	if parallel > 0 {
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-w4")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
	for k := range serialAcc.Data {
		if serialAcc.Data[k] != parAcc.Data[k] {
			b.Fatal("parallel kernel diverged from serial kernel")
		}
	}
}

// kernelProxyOccupancy builds a packed matrix whose columns each store
// roughly `occupancy` of the word rows (the quantity the dense threshold
// and the kernel dispatch act on — at b=64 even 2% row occupancy fills
// ~70% of the word rows, so the sweep controls word occupancy directly),
// with the given dense-threshold spec. cmd/benchkernels sweeps the same
// synth.WordOccupancyRows fixture, so its JSON artifact and these
// benchmarks stay comparable.
func kernelProxyOccupancy(seed uint64, rows, cols int, occupancy float64, threshold int) *bitmat.Packed {
	rowsPerCol := synth.WordOccupancyRows(synth.NewRNG(seed), rows, cols, occupancy)
	return bitmat.PackColumnsThreshold(rowsPerCol, rows, 64, threshold)
}

// BenchmarkHybridGramDensitySweep measures one full batch cycle of the
// engine's steady state — rebuild the packed matrix from entries,
// accumulate its Gram product, release — across a column-occupancy sweep
// under the three storage policies (sparse merge everywhere, the auto
// hybrid default, forced dense) and with the slab arena off and on. Each
// sub-benchmark reports allocs/op: with the arena the warm cycle must
// allocate ~zero, the ≥10× headline of the arena rung. Compare the
// arena=off/on pairs for the allocation delta and the storage policies at
// a fixed occupancy for the kernel dispatch payoff; `cmd/benchkernels`
// writes the same sweep (and the allocation comparison) as a JSON
// artifact.
func BenchmarkHybridGramDensitySweep(b *testing.B) {
	modes := []struct {
		name      string
		threshold int
	}{
		{"sparse", bitmat.DenseNever},
		{"auto", bitmat.DenseAuto},
		{"dense", 1},
	}
	const rows, cols = 16384, 128
	ctx := context.Background()
	for _, occ := range []float64{0.02, 0.1, 0.25, 0.5, 0.9} {
		for _, mode := range modes {
			entries := kernelProxyOccupancy(11, rows, cols, occ, mode.threshold).Entries()
			for _, withArena := range []bool{false, true} {
				name := fmt.Sprintf("occ=%g/%s/arena=%v", occ, mode.name, withArena)
				b.Run(name, func(b *testing.B) {
					var arena *bitmat.Arena
					if withArena {
						arena = bitmat.NewArena()
					}
					acc := sparse.MustDense[int64](cols, cols)
					wordRows := (rows + 63) / 64
					cycle := func() {
						packed := bitmat.FromEntriesThresholdArena(entries, wordRows, cols, 64, rows, mode.threshold, arena)
						if err := packed.GramAccumulateCtxArena(ctx, acc, 1, arena); err != nil {
							b.Fatal(err)
						}
						packed.Release()
					}
					for i := 0; i < 3; i++ {
						cycle() // warm the arena's free lists before counting
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cycle()
					}
				})
			}
		}
	}
}

// BenchmarkDenseKernelSpeedup90 times the sparse merge kernel and the
// dense contiguous kernel back to back on the same ≥90%-occupancy columns
// and reports the ratio — the acceptance metric of the hybrid layout (the
// dense×dense kernel must be ≥2× the merge kernel on dense data).
func BenchmarkDenseKernelSpeedup90(b *testing.B) {
	sparsePacked := kernelProxyOccupancy(12, 16384, 128, 0.9, bitmat.DenseNever)
	densePacked := kernelProxyOccupancy(12, 16384, 128, 0.9, 1)
	sparseAcc := sparse.MustDense[int64](sparsePacked.Cols, sparsePacked.Cols)
	denseAcc := sparse.MustDense[int64](densePacked.Cols, densePacked.Cols)
	// Warm both kernels so the single-sample CI smoke run does not charge
	// cold-start costs to whichever variant runs first.
	sparsePacked.GramAccumulateWorkers(sparseAcc, 1)
	densePacked.GramAccumulateWorkers(denseAcc, 1)
	for k := range sparseAcc.Data {
		if sparseAcc.Data[k] != denseAcc.Data[k] {
			b.Fatal("dense kernel diverged from sparse kernel")
		}
	}
	var sparseT, denseT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sparsePacked.GramAccumulateWorkers(sparseAcc, 1)
		sparseT += time.Since(t0)
		t1 := time.Now()
		densePacked.GramAccumulateWorkers(denseAcc, 1)
		denseT += time.Since(t1)
	}
	b.StopTimer()
	if denseT > 0 {
		b.ReportMetric(sparseT.Seconds()/denseT.Seconds(), "speedup-dense")
	}
}

func BenchmarkUncompressedGramReference(b *testing.B) {
	rng := synth.NewRNG(2)
	coo := sparse.MustCOO[int64](4000, 160)
	for j := 0; j < 160; j++ {
		for k := 0; k < 200; k++ {
			coo.Append(rng.Intn(4000), j, 1)
		}
	}
	csc := sparse.CSCFromCOO(coo, semiring.PlusInt64())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.GramT(csc, semiring.PlusTimesInt64())
	}
}

func BenchmarkKmerExtraction(b *testing.B) {
	rng := synth.NewRNG(7)
	seq := genome.RandomSequence(rng, 100_000)
	opts := genome.ExtractorOptions{K: 31, Canonical: true}
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := genome.ExtractKmers(seq, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinHashSketch(b *testing.B) {
	values := make([]uint64, 100_000)
	rng := synth.NewRNG(8)
	for i := range values {
		values[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minhash.MustNew(values, 1000)
	}
}
