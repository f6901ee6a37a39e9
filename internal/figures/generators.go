package figures

import (
	"context"
	"fmt"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/core"
	"genomeatscale/internal/costmodel"
	"genomeatscale/internal/dataset"
	"genomeatscale/internal/minhash"
	"genomeatscale/internal/stats"
	"genomeatscale/internal/synth"
	"genomeatscale/internal/tile"
)

// Table2 reproduces Table II: the scale comparison of alignment-free
// genetic-distance tools.
func Table2() Table {
	t := Table{
		Title:  "Table II — scales of alignment-free genetic-distance tools",
		Header: []string{"Tool", "Nodes", "Samples", "Raw input", "Preprocessed", "Similarity", "Exact Jaccard", "Distributed"},
	}
	for _, row := range dataset.TableII() {
		raw := "N/A"
		if row.RawInputTB > 0 {
			raw = fmt.Sprintf("%.3g TB", row.RawInputTB)
		}
		pre := "N/A"
		if row.PreprocessedGB > 0 {
			pre = fmt.Sprintf("%.3g GB", row.PreprocessedGB)
		}
		t.AddRow(row.Tool, itoa(row.ComputeNodes), itoa(row.Samples), raw, pre,
			row.SimilarityKind, fmt.Sprintf("%v", row.ExactJaccard), fmt.Sprintf("%v", row.DistributedRun))
	}
	return t
}

// projectionTable renders a cost-model strong-scaling series.
func projectionTable(title string, points []costmodel.ScalingPoint, longRun bool) Table {
	t := Table{
		Title:  title,
		Header: []string{"Nodes", "Ranks", "c", "Batches", "Time/batch", "Projected total", "Efficiency"},
	}
	for _, p := range points {
		total := hours(p.TotalSeconds)
		if longRun {
			total = days(p.TotalSeconds)
		}
		t.AddRow(itoa(p.Nodes), itoa(p.Ranks), itoa(p.Replication), itoa(p.Batches),
			seconds(p.BatchSeconds), total, fmt.Sprintf("%.2f", p.Efficiency))
	}
	return t
}

// measuredRun executes the pipeline on ds with the given configuration,
// discarding the output, and returns a formatted row plus the result. A
// one-rank run is a single process that starts no BSP runtime, so its row
// reports the true communication of one process: 0 bytes in 0 supersteps.
func measuredRun(ds core.Dataset, ranks, batches, replication int) ([]string, *core.Result, error) {
	opts := core.DefaultOptions()
	opts.Procs = ranks
	opts.BatchCount = batches
	opts.Replication = replication
	e, err := core.NewEngine(opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Stream(context.Background(), ds, tile.Discard)
	if err != nil {
		return nil, nil, err
	}
	comm := res.Stats.Comm
	if comm == nil {
		comm = &bsp.Stats{}
	}
	warmup := 0
	if batches > 2 {
		warmup = 1
	}
	batchSummary := stats.BatchSummary(res.Stats.BatchSeconds, warmup)
	projected := costmodel.TimeFromStats(costmodel.Stampede2KNL(), comm)
	row := []string{
		itoa(ranks),
		itoa(replication),
		itoa(batches),
		seconds(batchSummary.Mean),
		seconds(res.Stats.TotalSeconds),
		mb(float64(comm.TotalBytes)),
		itoa(comm.Supersteps),
		seconds(projected),
	}
	return row, res, nil
}

var measuredHeader = []string{"Ranks", "c", "Batches", "Time/batch", "Total", "Comm volume", "Supersteps", "Projected (Stampede2)"}

// measuredScalingTable runs the pipeline for each rank count.
func measuredScalingTable(title string, ds core.Dataset, rankCounts []int, batches, replication int) (Table, error) {
	t := Table{Title: title, Header: measuredHeader}
	for _, r := range rankCounts {
		row, _, err := measuredRun(ds, r, batches, replication)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// kingsfordProxy materialises a scaled Kingsford proxy for measured runs.
func kingsfordProxy(scale Scale) (*core.InMemoryDataset, error) {
	cfg := dataset.ScaledConfig{Samples: 96, Attributes: 50_000, DensityScale: 20, Seed: 11}
	if scale == Medium {
		cfg = dataset.ScaledConfig{Samples: 256, Attributes: 200_000, DensityScale: 20, Seed: 11}
	}
	return dataset.Kingsford().Generate(cfg)
}

// bigsiProxy materialises a scaled BIGSI proxy (density raised so the
// scaled-down matrix still holds work, column variability preserved).
func bigsiProxy(scale Scale) (*core.InMemoryDataset, error) {
	cfg := dataset.ScaledConfig{Samples: 64, Attributes: 1_000_000, DensityScale: 5e7, Seed: 13}
	if scale == Medium {
		cfg = dataset.ScaledConfig{Samples: 192, Attributes: 4_000_000, DensityScale: 5e7, Seed: 13}
	}
	return dataset.BIGSI().Generate(cfg)
}

func ranksFor(scale Scale) []int {
	if scale == Medium {
		return []int{1, 2, 4, 8, 16, 32}
	}
	return []int{1, 2, 4, 8}
}

// Fig2aKingsfordStrongScaling reproduces Figure 2a: strong scaling on the
// Kingsford dataset.
func Fig2aKingsfordStrongScaling(scale Scale) ([]Table, error) {
	machine := costmodel.Stampede2KNL()
	points, err := costmodel.StrongScaling(machine, costmodel.KingsfordShape(), []int{1, 2, 4, 8, 16, 32, 64, 128, 256})
	if err != nil {
		return nil, err
	}
	proj := projectionTable("Figure 2a — Kingsford strong scaling (cost-model projection, full scale)", points, false)
	ds, err := kingsfordProxy(scale)
	if err != nil {
		return nil, err
	}
	meas, err := measuredScalingTable("Figure 2a — Kingsford strong scaling (measured, scaled proxy)", ds, ranksFor(scale), 4, 1)
	if err != nil {
		return nil, err
	}
	return []Table{proj, meas}, nil
}

// Fig2bBIGSIStrongScaling reproduces Figure 2b: strong scaling on the BIGSI
// dataset.
func Fig2bBIGSIStrongScaling(scale Scale) ([]Table, error) {
	machine := costmodel.Stampede2KNL()
	points, err := costmodel.StrongScaling(machine, costmodel.BIGSIShape(), []int{128, 256, 512, 1024})
	if err != nil {
		return nil, err
	}
	proj := projectionTable("Figure 2b — BIGSI strong scaling (cost-model projection, full scale)", points, true)
	ds, err := bigsiProxy(scale)
	if err != nil {
		return nil, err
	}
	meas, err := measuredScalingTable("Figure 2b — BIGSI strong scaling (measured, scaled proxy)", ds, ranksFor(scale), 4, 2)
	if err != nil {
		return nil, err
	}
	return []Table{proj, meas}, nil
}

// batchSensitivityTables builds the projection and measurement for a batch
// size sensitivity figure.
func batchSensitivityTables(name string, shape costmodel.DatasetShape, nodes int, projBatches []int,
	ds core.Dataset, ranks int, measuredBatches []int, longRun bool) ([]Table, error) {
	machine := costmodel.Stampede2KNL()
	points, err := costmodel.BatchSensitivity(machine, shape, nodes, projBatches)
	if err != nil {
		return nil, err
	}
	proj := projectionTable(fmt.Sprintf("%s (cost-model projection, full scale, %d nodes)", name, nodes), points, longRun)
	meas := Table{Title: fmt.Sprintf("%s (measured, scaled proxy, %d ranks)", name, ranks), Header: measuredHeader}
	for _, b := range measuredBatches {
		row, _, err := measuredRun(ds, ranks, b, 1)
		if err != nil {
			return nil, err
		}
		meas.Rows = append(meas.Rows, row)
	}
	return []Table{proj, meas}, nil
}

// Fig2cBatchSensitivityKingsford reproduces Figure 2c.
func Fig2cBatchSensitivityKingsford(scale Scale) ([]Table, error) {
	ds, err := kingsfordProxy(scale)
	if err != nil {
		return nil, err
	}
	measuredBatches := []int{16, 8, 4, 2, 1}
	return batchSensitivityTables("Figure 2c — Kingsford batch-size sensitivity",
		costmodel.KingsfordShape(), 8, []int{16384, 8192, 4096, 2048, 1024},
		ds, 4, measuredBatches, false)
}

// Fig2dBatchSensitivityBIGSI reproduces Figure 2d.
func Fig2dBatchSensitivityBIGSI(scale Scale) ([]Table, error) {
	ds, err := bigsiProxy(scale)
	if err != nil {
		return nil, err
	}
	measuredBatches := []int{16, 8, 4, 2, 1}
	return batchSensitivityTables("Figure 2d — BIGSI batch-size sensitivity",
		costmodel.BIGSIShape(), 128, []int{262144, 131072, 65536, 32768, 16384},
		ds, 4, measuredBatches, true)
}

// Fig2eSyntheticStrongScaling reproduces Figure 2e: strong scaling on the
// synthetic dataset (paper: m = 32M, n = 10k, p = 0.01, 1–64 nodes).
func Fig2eSyntheticStrongScaling(scale Scale) ([]Table, error) {
	machine := costmodel.Stampede2KNL()
	shape := costmodel.DatasetShape{
		Name:          "synthetic m=32M n=10k p=0.01",
		Samples:       10000,
		Attributes:    32e6,
		TotalNonzeros: 32e6 * 10000 * 0.01,
	}
	points, err := costmodel.StrongScaling(machine, shape, []int{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		return nil, err
	}
	proj := projectionTable("Figure 2e — synthetic strong scaling (cost-model projection, full scale)", points, false)

	samples, attrs := 128, uint64(20000)
	if scale == Medium {
		samples, attrs = 384, 60000
	}
	ds, err := synth.Generate(synth.Config{Samples: samples, Attributes: attrs, Density: 0.01, Seed: 5})
	if err != nil {
		return nil, err
	}
	meas, err := measuredScalingTable("Figure 2e — synthetic strong scaling (measured, scaled proxy)", ds, ranksFor(scale), 4, 1)
	if err != nil {
		return nil, err
	}
	return []Table{proj, meas}, nil
}

// Fig2fSyntheticWeakScaling reproduces Figure 2f: weak scaling where the
// matrix grows with the core count (paper: 50k×500 on 1 core up to
// 3.2M×32k on 4096 cores, p = 0.01).
func Fig2fSyntheticWeakScaling(scale Scale) ([]Table, error) {
	machine := costmodel.Stampede2KNL()
	points, err := costmodel.WeakScaling(machine, 50_000, 500, 0.01, []int{1, 4, 16, 64, 256, 1024, 4096})
	if err != nil {
		return nil, err
	}
	proj := Table{
		Title:  "Figure 2f — synthetic weak scaling (cost-model projection, full scale)",
		Header: []string{"Ranks", "#k-mers", "#samples", "Work/rank (ops)", "Projected time"},
	}
	base := points[0]
	for _, p := range points {
		proj.AddRow(itoa(p.Ranks), fmt.Sprintf("%.3g", p.Attributes), itoa(p.Samples),
			fmt.Sprintf("%.3g (×%.1f)", p.WorkPerRank, p.WorkPerRank/base.WorkPerRank),
			seconds(p.TotalSeconds))
	}

	meas := Table{Title: "Figure 2f — synthetic weak scaling (measured, scaled proxy)", Header: measuredHeader}
	baseSamples, baseAttrs := 48, 8000
	if scale == Medium {
		baseSamples, baseAttrs = 96, 20000
	}
	for _, r := range []int{1, 4, 16} {
		grow := 1
		for g := 1; g*g <= r; g++ {
			if g*g == r {
				grow = g
			}
		}
		ds, err := synth.Generate(synth.Config{
			Samples:    baseSamples * grow,
			Attributes: uint64(baseAttrs * grow),
			Density:    0.01,
			Seed:       6,
		})
		if err != nil {
			return nil, err
		}
		row, _, err := measuredRun(ds, r, 2, 1)
		if err != nil {
			return nil, err
		}
		meas.Rows = append(meas.Rows, row)
	}
	return []Table{proj, meas}, nil
}

// Fig3SparsitySweep reproduces Figure 3: runtime against data sparsity
// (paper: n = 10k, m = 32M, 16 nodes, 4 batches, p from 1e-4 to 1e-2).
func Fig3SparsitySweep(scale Scale) ([]Table, error) {
	machine := costmodel.Stampede2KNL()
	densities := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2}
	points, err := costmodel.SparsitySweep(machine, 32e6, 10000, 16, 4, densities)
	if err != nil {
		return nil, err
	}
	proj := Table{
		Title:  "Figure 3 — sparsity sensitivity (cost-model projection, full scale, 16 nodes, 4 batches)",
		Header: []string{"Density p", "Time/batch", "Total"},
	}
	for _, p := range points {
		proj.AddRow(fmt.Sprintf("%.0e", p.Density), seconds(p.BatchSeconds), seconds(p.TotalSeconds))
	}

	meas := Table{
		Title:  "Figure 3 — sparsity sensitivity (measured, scaled proxy, 4 ranks, 2 batches)",
		Header: append([]string{"Density p"}, measuredHeader...),
	}
	samples, attrs := 96, uint64(50000)
	if scale == Medium {
		samples, attrs = 192, 150000
	}
	for _, d := range []float64{1e-3, 3e-3, 1e-2, 3e-2} {
		ds, err := synth.Generate(synth.Config{Samples: samples, Attributes: attrs, Density: d, Seed: 8})
		if err != nil {
			return nil, err
		}
		row, _, err := measuredRun(ds, 4, 2, 1)
		if err != nil {
			return nil, err
		}
		meas.Rows = append(meas.Rows, append([]string{fmt.Sprintf("%.0e", d)}, row...))
	}
	return []Table{proj, meas}, nil
}

// MCDRAMAblation reproduces the Section V-D comparison: per-batch time with
// MCDRAM as cache versus as addressable memory, on the Kingsford dataset at
// 4 and 32 nodes.
func MCDRAMAblation() Table {
	t := Table{
		Title:  "Section V-D — MCDRAM ablation (cost-model projection, Kingsford)",
		Header: []string{"Nodes", "Time/batch (MCDRAM as L3)", "Time/batch (no MCDRAM cache)", "Slowdown"},
	}
	for _, nodes := range []int{4, 32} {
		batches := costmodel.Batches(costmodel.Stampede2KNL(), costmodel.KingsfordShape().TotalNonzeros, nodes*32)
		with, without := costmodel.MCDRAMComparison(costmodel.KingsfordShape(), nodes, batches)
		t.AddRow(itoa(nodes), seconds(with), seconds(without), fmt.Sprintf("%.2f%%", 100*(without-with)/with))
	}
	return t
}

// AccuracyExactVsMinHash reproduces the accuracy motivation of Sections I
// and II: the exact Jaccard values computed by SimilarityAtScale against
// MinHash estimates at several sketch sizes, across a range of true
// similarities (MinHash degrades for highly similar and highly dissimilar
// pairs unless sketches are large).
func AccuracyExactVsMinHash(scale Scale) (Table, error) {
	setSize := 5000
	if scale == Medium {
		setSize = 20000
	}
	sketchSizes := []int{100, 1000, 10000}
	t := Table{
		Title:  "Accuracy — exact Jaccard (SimilarityAtScale) vs MinHash estimates",
		Header: []string{"True J", "Exact (pipeline)", "MinHash s=100", "MinHash s=1000", "MinHash s=10000", "Max |error| s=100"},
	}
	rng := synth.NewRNG(77)
	for _, target := range []float64{0.05, 0.5, 0.9, 0.99, 0.999} {
		x, y := synth.PairWithJaccard(rng, uint64(1)<<40, setSize, target)
		ds, err := core.NewInMemoryDataset([]string{"x", "y"}, [][]uint64{x, y}, uint64(1)<<40)
		if err != nil {
			return Table{}, err
		}
		res, err := gathered(ds, core.DefaultOptions())
		if err != nil {
			return Table{}, err
		}
		exact := res.Similarity(0, 1)
		row := []string{fmt.Sprintf("%.3f", target), fmt.Sprintf("%.5f", exact)}
		var worst float64
		for i, s := range sketchSizes {
			est, err := minhash.EstimateJaccard(minhash.MustNew(x, s), minhash.MustNew(y, s))
			if err != nil {
				return Table{}, err
			}
			row = append(row, fmt.Sprintf("%.5f", est))
			if i == 0 {
				worst = est - exact
				if worst < 0 {
					worst = -worst
				}
			}
		}
		row = append(row, fmt.Sprintf("%.5f", worst))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationBitmask compares the bitmask widths of Section III-B (b = 1, i.e.
// effectively uncompressed, against b = 32 and b = 64) on the same scaled
// Kingsford proxy: identical results, different packed-word counts and
// runtimes.
func AblationBitmask(scale Scale) (Table, error) {
	ds, err := kingsfordProxy(scale)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation — bitmask compression width b (Section III-B design choice)",
		Header: []string{"Mask bits b", "Time total", "Comm volume", "Projected (Stampede2)", "Result identical to b=64"},
	}
	reference, err := runWithMask(ds, 64)
	if err != nil {
		return Table{}, err
	}
	for _, b := range []int{1, 8, 32, 64} {
		res, err := runWithMask(ds, b)
		if err != nil {
			return Table{}, err
		}
		identical := sameSimilarity(reference, res)
		t.AddRow(itoa(b), seconds(res.Stats.TotalSeconds), mb(float64(res.Stats.Comm.TotalBytes)),
			seconds(costmodel.TimeFromStats(costmodel.Stampede2KNL(), res.Stats.Comm)), fmt.Sprintf("%v", identical))
	}
	return t, nil
}

func runWithMask(ds core.Dataset, maskBits int) (*core.Result, error) {
	opts := core.DefaultOptions()
	opts.Procs = 4
	opts.BatchCount = 2
	opts.MaskBits = maskBits
	return gathered(ds, opts)
}

// gathered runs the pipeline once and assembles the full matrices.
func gathered(ds core.Dataset, opts core.Options) (*core.Result, error) {
	e, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.Similarity(context.Background(), ds)
}

func sameSimilarity(a, b *core.Result) bool {
	if a.S == nil || b.S == nil || len(a.S.Data) != len(b.S.Data) {
		return false
	}
	for i := range a.S.Data {
		d := a.S.Data[i] - b.S.Data[i]
		if d > 1e-12 || d < -1e-12 {
			return false
		}
	}
	return true
}

// AblationReplication compares processor-grid replication factors c
// (Section III-C design choice) on the same dataset and rank count,
// reporting the communication volume trade-off.
func AblationReplication(scale Scale) (Table, error) {
	ds, err := kingsfordProxy(scale)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation — replication factor c of the √(p/c)×√(p/c)×c grid (8 ranks)",
		Header: measuredHeader,
	}
	for _, c := range []int{1, 2, 4, 8} {
		row, _, err := measuredRun(ds, 8, 2, c)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// All returns every figure and table of the evaluation, in paper order.
func All(scale Scale) ([]Table, error) {
	var out []Table
	out = append(out, Table2())
	appendAll := func(tables []Table, err error) error {
		if err != nil {
			return err
		}
		out = append(out, tables...)
		return nil
	}
	if err := appendAll(Fig2aKingsfordStrongScaling(scale)); err != nil {
		return nil, err
	}
	if err := appendAll(Fig2bBIGSIStrongScaling(scale)); err != nil {
		return nil, err
	}
	if err := appendAll(Fig2cBatchSensitivityKingsford(scale)); err != nil {
		return nil, err
	}
	if err := appendAll(Fig2dBatchSensitivityBIGSI(scale)); err != nil {
		return nil, err
	}
	if err := appendAll(Fig2eSyntheticStrongScaling(scale)); err != nil {
		return nil, err
	}
	if err := appendAll(Fig2fSyntheticWeakScaling(scale)); err != nil {
		return nil, err
	}
	if err := appendAll(Fig3SparsitySweep(scale)); err != nil {
		return nil, err
	}
	out = append(out, MCDRAMAblation())
	acc, err := AccuracyExactVsMinHash(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, acc)
	bm, err := AblationBitmask(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, bm)
	rep, err := AblationReplication(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, rep)
	comp, err := CompressionStats(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, comp)
	return out, nil
}
