// Command benchmark is the repository's one benchmark. For each workload it
// generates the inputs from a seed, drives the shipped binaries
// (similarityatscale, similarityd) the way a user would — sample files in,
// similarity answers out — checks every answer against an exact oracle and
// prints every metric by name with its unit. A separate traced run
// (-trace 1) repeats the workload in-process with spans around the calls
// into each module and reports the per-layer metrics. See README.md.
//
//	go run -C benchmark . -workload sparse-files -seed 1
//	go run -C benchmark . -workload all -seed 1 -trace 1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"genomeatscale/internal/synth"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == rssWrapFlag {
		os.Exit(rssWrap(os.Args[2:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed          uint64
	Seconds       int
	Trace         bool
	Smoke         bool
	CorruptOracle bool
}

// result is everything one workload run reports; result files hold it in
// full, the last line of standard output holds its driver-facing part.
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke"`
	Host      hostFacts         `json:"host"`
	Sizes     map[string]any    `json:"sizes"`
	Commands  []string          `json:"commands"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reasons   []string          `json:"failure_reasons,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "sparse-files, dense-mem, grid-tcp, serve-mixed, or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 16, "measurement budget of one run; three eighths go to the batch solves")
	trace := fs.Int("trace", 0, "1: traced in-process run reporting the per-layer metrics; 0: end-to-end metrics from the shipped binaries")
	smoke := fs.Bool("smoke", false, "tiny sizes and counts, for the harness's own tests")
	corrupt := fs.Bool("corrupt-oracle", false, "self-test: falsify one expected value per stage; the run must then report failures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", *seconds)
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke, CorruptOracle: *corrupt}

	if *name == "all" {
		var results []*result
		for _, w := range workloads(cfg.Smoke) {
			res, err := e.runWorkload(ctx, w, cfg, stdout)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			results = append(results, res)
		}
		if err := writeJSONFile(filepath.Join(e.Out, "result.json"), results); err != nil {
			return err
		}
		lines := make([]driverLine, len(results))
		for i, res := range results {
			lines[i] = res.driverLine()
		}
		return json.NewEncoder(stdout).Encode(lines)
	}
	w, err := findWorkload(*name, cfg.Smoke)
	if err != nil {
		return err
	}
	res, err := e.runWorkload(ctx, w, cfg, stdout)
	if err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(e.Out, "result-"+w.Name+".json"), res); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res.driverLine())
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	l := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]driverMetric, len(r.Metrics))}
	for name, m := range r.Metrics {
		l.Metrics[name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	return l
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// batchInput is one generated batch collection on disk with the oracle
// that knows its answer.
type batchInput struct {
	ds     *dataset
	dir    string
	diskMB float64
	digest string
	oracle *batchOracle
}

// inputs is what a run's set-ups produce: one batch collection per set-up
// and the serve stage's corpus, queries and appends.
type inputs struct {
	batches []*batchInput
	serve   *serveInputs
}

// setup does everything a run needs before it can measure: build the
// shipped binaries, generate a batch collection and the corpus from the
// seed, write the sample files, and compute the oracles.
//
// A run repeats its set-up (setup_s is the median), and each repetition
// generates a batch collection of different contents; the solves then take
// turns over them. How much memory and time a solve needs depends on the
// contents, not only on their shape — the same shape gives 200 MB for one
// seed and 260 MB for the next — so one collection per run would make a
// run's numbers a sample of one; several make them a small average.
func (e env) setup(ctx context.Context, w workload, seed uint64, work string, rep int) (*batchInput, *serveInputs, error) {
	if err := e.buildBinaries(ctx); err != nil {
		return nil, nil, err
	}
	corpus, err := genDataset(w.Serve.Corpus, "c", seed^0xc0a905)
	if err != nil {
		return nil, nil, err
	}
	batch := corpus
	if !w.BatchIsCorpus {
		// Drawn, not added: synth.RNG steps its state by a constant, so seeds
		// a multiple of that constant apart give one stream, shifted.
		if batch, err = genDataset(w.Batch, "s", synth.NewRNG(seed^uint64(rep)<<32).Uint64()); err != nil {
			return nil, nil, err
		}
	}
	b := &batchInput{ds: batch, dir: filepath.Join(work, fmt.Sprintf("samples-%d", rep))}
	bytesOnDisk, digest, err := writeSamples(b.dir, batch)
	if err != nil {
		return nil, nil, err
	}
	b.diskMB, b.digest = float64(bytesOnDisk)/1e6, digest
	b.oracle = newBatchOracle(batch, batch.randomPairs(synth.NewRNG(seed^0x0fac1e), randomOraclePairs))
	serve, err := genServeInputs(w.Serve, corpus, seed)
	if err != nil {
		return nil, nil, err
	}
	// Flush the sample files now. Left to the kernel, their write-back
	// starts thirty seconds later, in the middle of the serve stage of this
	// run or the next, and slows its fsyncs and its latencies.
	syscall.Sync()
	return b, serve, nil
}

// corruptOracles falsifies one expected value per stage. It exists for the
// self-test that proves a wrong answer is counted as a failure.
func (in *inputs) corruptOracles() {
	for _, b := range in.batches {
		b.oracle.known[0].Jaccard += 0.01
	}
	in.serve.oracle.expectSource[0] += 0.01
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 3

func (e env) runWorkload(ctx context.Context, w workload, cfg runConfig, stdout io.Writer) (*result, error) {
	host := readHost(e.Root)
	work := filepath.Join(e.Out, "work", w.Name)
	if cfg.Smoke {
		work = filepath.Join(e.Out, "work", "smoke-"+w.Name)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	reps := setupReps
	if cfg.Smoke || cfg.Trace {
		// The traced run measures one collection and reports no setup_s.
		reps = 1
	}
	in := new(inputs)
	var setupS []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		b, serve, err := e.setup(ctx, w, cfg.Seed, work, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		in.batches, in.serve = append(in.batches, b), serve
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	first := in.batches[0]
	if cfg.CorruptOracle {
		in.corruptOracles()
	}

	paths := solvePaths{Stats: filepath.Join(work, "stats.json"), TSV: filepath.Join(work, "sim.tsv"), Index: filepath.Join(work, "cli.idx")}
	res := &result{
		Workload: w.Name, Why: w.Why, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Smoke: cfg.Smoke, Host: host,
		Sizes: map[string]any{
			"n": first.ds.N, "m": first.ds.M, "nnz": first.ds.nnz, "sample_files_mb": first.diskMB, "inputs_sha256": first.digest,
			"collections": len(in.batches), "ranks": max(w.Ranks, 1),
			"planted_pairs": len(first.ds.planted), "oracle_pairs": len(first.oracle.known),
			"corpus_n": in.serve.corpus.N, "corpus_m": in.serve.corpus.M, "corpus_nnz": in.serve.corpus.nnz,
			"sketch_k": w.Serve.SketchK, "queries": len(in.serve.queries), "appends": len(in.serve.appends),
		},
		Commands: []string{
			"similarityatscale " + fmt.Sprint(solveArgs(w, "samples", solvePaths{Stats: "stats.json", TSV: "sim.tsv", Index: "cli.idx"})),
			"similarityd -index corpus.idx -addr 127.0.0.1:0",
		},
		Metrics: map[string]metric{},
	}
	if ok, why := scalingRatioAllowed(max(w.Ranks, 1), max(w.Engine.Workers, 1), host.CPUs); !ok {
		res.Notes = append(res.Notes, why)
	}
	t := new(tally)
	var err error
	if cfg.Trace {
		err = e.runTraced(ctx, w, cfg, in, paths, work, t, res)
	} else {
		res.Metrics["setup_s"] = summary(setupS, "s")
		err = e.runEndToEnd(ctx, w, cfg, in, paths, work, t, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Reasons = t.Attempted, t.Failed, t.Reasons
	res.Correct = t.Failed == 0 && t.Attempted > 0
	res.print(stdout)
	return res, nil
}

// checkSolve verifies the answer one solve of the collection produced.
func (b *batchInput) checkSolve(w workload, sr solveResult, paths solvePaths) error {
	if w.Output == matrixTSV {
		return b.oracle.checkTSV(paths.TSV)
	}
	return b.oracle.checkPairList(w, sr.Stdout)
}

// runEndToEnd measures the end-to-end metrics with the shipped binaries
// and tracing off.
func (e env) runEndToEnd(ctx context.Context, w workload, cfg runConfig, in *inputs, paths solvePaths, work string, t *tally, res *result) error {
	// Batch stage: repeat the solve for three eighths of the run's budget,
	// at least minSolves times. A failed or wrong solve is tallied and
	// misses the timing samples.
	solves, budget := minSolves, time.Duration(cfg.Seconds)*time.Second*3/8
	if cfg.Smoke {
		solves, budget = 2, 0
	}
	var solveS, rssMB []float64
	start := time.Now()
	for i := 0; i < solves || time.Since(start) < budget; i++ {
		b := in.batches[i%len(in.batches)]
		sr, err := e.solve(ctx, w, b.dir, paths)
		if err == nil {
			err = b.checkSolve(w, sr, paths)
		}
		t.op(err)
		if err == nil {
			solveS = append(solveS, sr.Seconds)
			rssMB = append(rssMB, sr.RSSMB)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	res.Metrics["solve_s"] = summary(solveS, "s")
	// The mean, not the median: from one execution to the next a solve's peak
	// memory is spread almost evenly between the collector's low and high
	// water, and for such a distribution the mean of a few solves is the
	// steadier summary.
	res.Metrics["peak_rss_mb"] = metric{Value: sum(rssMB) / float64(max(len(rssMB), 1)), Unit: "MB",
		Q1: quantile(rssMB, 0.25), Q3: quantile(rssMB, 0.75), N: len(rssMB)}

	var bi builtIndex
	var buildS []float64
	for i := 0; i < indexBuildReps; i++ {
		var err error
		if bi, err = buildIndex(in.serve.corpus, w.Serve.SketchK, filepath.Join(work, "corpus.idx")); err != nil {
			return err
		}
		buildS = append(buildS, bi.BuildS+bi.WriteS)
	}
	if w.BatchIsCorpus {
		// The solves wrote an index from the same samples with -index-out;
		// it must equal the one built here byte for byte.
		t.op(sameFile(paths.Index, bi.Path))
	}
	sv, err := e.runServe(ctx, w.Serve, in.serve, bi.Path, t)
	if err != nil {
		return err
	}
	res.Metrics["index_build_s"] = summary(buildS, "s")
	res.Metrics["ready_s"] = readySummary(sv.ReadyS)
	res.Metrics["query_p50_ms"] = percentile(sv.QueryMS, 0.50, "ms")
	res.Metrics["query_p99_ms"] = blockP99(sv.QueryMS)
	res.Metrics["query_qps"] = metric{Value: sv.QPS, Unit: "1/s", N: len(sv.QueryMS)}
	res.Metrics["storm_query_p99_ms"] = percentile(sv.StormQueryMS, 0.99, "ms")
	res.Metrics["append_p50_ms"] = percentile(sv.AppendMS, 0.50, "ms")
	res.Metrics["served_rss_mb"] = scalar(sv.ServedRSSMB, "MB")
	res.Sizes["clients"] = sv.Clients
	res.Sizes["index_mb"] = float64(bi.Bytes) / 1e6
	return nil
}

// p99Block is the number of consecutive replies one p99 is taken over: the
// smallest count that leaves ten samples beyond the percentile.
const p99Block = 1000

// blockP99 reports the median of the p99s of consecutive blocks of p99Block
// latencies. The host stalls for a second now and then; a p99 over the
// whole phase is set by the one stall that fell into it, the median over
// blocks by what the service does the rest of the time.
func blockP99(ms []float64) metric {
	var p99s []float64
	for lo := 0; lo < len(ms); lo += p99Block {
		hi := min(lo+p99Block, len(ms))
		if hi-lo < p99Block && lo > 0 {
			break // a short tail block would be a noisier estimate than the rest
		}
		p99s = append(p99s, quantile(ms[lo:hi], 0.99))
	}
	return metric{Value: median(p99s), Unit: "ms", Q1: quantile(p99s, 0.25), Q3: quantile(p99s, 0.75), N: len(ms)}
}

// indexBuildReps is how often a run builds and writes the corpus index;
// index_build_s is the median.
const indexBuildReps = 5

// sameFile fails unless the two files hold the same bytes: the index the
// CLI wrote with -index-out must equal the one the harness built from the
// same samples.
func sameFile(a, b string) error {
	da, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	db, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(da, db) {
		return fmt.Errorf("%s and %s differ", filepath.Base(a), filepath.Base(b))
	}
	return nil
}

// print writes the human-readable report: host and sizes, every metric by
// name with its unit (and quartiles and sample count where it has them),
// and the operation tally.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (shipped binaries, tracing off)"
	if r.Trace {
		mode = "traced (in-process, per-layer)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "host: cpus=%d GOMAXPROCS=%d kernel=%s go=%s popcount=%s commit=%s llc=%dKiB\n",
		r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.Kernel, r.Host.GoVersion, r.Host.PopcountKernel, r.Host.Commit, r.Host.LLCBytes>>10)
	keys := make([]string, 0, len(r.Sizes))
	for k := range r.Sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "sizes:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, r.Sizes[k])
	}
	fmt.Fprintln(w)
	for _, c := range r.Commands {
		fmt.Fprintln(w, "command:", c)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "%-36s %14.6g %-10s", k, m.Value, m.Unit)
		if m.Q1 != 0 || m.Q3 != 0 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.N != 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d correct=%v\n", r.Attempted, r.Failed, r.Failed == 0 && r.Attempted > 0)
	for _, reason := range r.Reasons {
		fmt.Fprintln(w, "failure:", reason)
	}
}
