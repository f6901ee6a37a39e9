package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/core"
	"genomeatscale/internal/costmodel"
	"genomeatscale/internal/output"
	"genomeatscale/internal/tile"
)

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Host     hostFacts         `json:"host"`
	Layers   []layerRow        `json:"layers"`
	Metrics  map[string]metric `json:"metrics"`
	Replay   map[string]any    `json:"replay"`
	Stats    map[string]any    `json:"run_stats"`
	Spans    []span            `json:"spans"`
	Notes    []string          `json:"notes,omitempty"`
}

// readRunStats decodes the RunStats a solve wrote with -stats-json.
func readRunStats(path string) (*core.RunStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cliutil.ReadStatsJSON(f)
}

// runTraced produces the per-layer metrics. Counts come from one solve of
// the shipped binary (-stats-json) and from the served run (/v1/corpus);
// times come from an in-process repeat of the batch stage with spans
// around every call into the loader, the sink and the transport, and from
// replays of single public calls. Nothing is added inside the program.
func (e env) runTraced(ctx context.Context, w workload, cfg runConfig, in *inputs, paths solvePaths, work string, t *tally, res *result) error {
	m := res.Metrics
	replay := map[string]any{}
	batch := in.batches[0]

	// Counts: one solve of the shipped binary, checked like any other.
	sr, err := e.solve(ctx, w, batch.dir, paths)
	if err == nil {
		err = batch.checkSolve(w, sr, paths)
	}
	t.op(err)
	if err != nil {
		return fmt.Errorf("the solve that supplies the run statistics failed: %w", err)
	}
	stats, err := readRunStats(paths.Stats)
	if err != nil {
		return err
	}
	runStatsMetrics(m, stats, batch.ds.nnz)

	// Times: the batch stage in-process, traced and untraced.
	rec := newRecorder()
	traced, untraced, mem, err := inProcessRuns(ctx, w, batch.dir, rec)
	if err != nil {
		return err
	}
	// Rank 0's rows of the per-layer table, by span name.
	layers := rec.layerTable()
	rank0 := make(map[string]layerRow)
	for _, row := range layers {
		if row.Run == "traced-rank0" {
			rank0[row.Name] = row
		}
	}
	m["core.run_s"] = scalar(traced[0].Seconds, "s")
	m["core.self_s"] = scalar(rank0["core.Stream"].SelfS, "s")
	m["samplefile.wait_s"] = scalar(rank0["samplefile.SampleErr"].TotalS+rank0["samplefile.LoadRange"].TotalS, "s")
	m["tile.emit_s"] = scalar(rank0["tile.Start"].TotalS+rank0["tile.Emit"].TotalS+rank0["tile.Flush"].TotalS, "s")
	m["trace.overhead_frac"] = scalar((traced[0].Seconds-untraced[0].Seconds)/untraced[0].Seconds, "ratio")
	m["tcptransport.exchange_s"] = scalar(rank0["bsp.Exchange"].TotalS, "s")
	m["bsp.mem_run_s"] = scalar(0, "s")
	m["tcptransport.overhead_s"] = scalar(0, "s")
	m["costmodel.predicted_s"] = scalar(0, "s")
	m["costmodel.pred_over_meas"] = scalar(0, "ratio")
	m["output.write_s"] = scalar(0, "s")
	if mem != nil {
		// The same four-rank run over the in-process memory transport: what
		// is left when the wire is taken away, and what the cost model
		// predicts for exactly that run.
		predicted := costmodel.TimeFromStats(costmodel.Detect(), mem[0].Stats.Comm)
		m["bsp.mem_run_s"] = scalar(mem[0].Seconds, "s")
		m["tcptransport.overhead_s"] = scalar(untraced[0].Seconds-mem[0].Seconds, "s")
		m["costmodel.predicted_s"] = scalar(predicted, "s")
		m["costmodel.pred_over_meas"] = scalar(predicted/mem[0].Seconds, "ratio")
		if collect, ok := traced[0].Sink.(*tile.Collect); ok {
			writeS, err := replayWriteTSV(filepath.Join(work, "replay.tsv"), collect)
			if err != nil {
				return err
			}
			m["output.write_s"] = scalar(writeS, "s")
		}
		if ok, _ := scalingRatioAllowed(w.Ranks, max(w.Engine.Workers, 1), res.Host.CPUs); ok {
			seq := w
			seq.Ranks = 1
			one, err := engineRun(ctx, seq, batch.dir, nil, "sequential", nil)
			if err != nil {
				return err
			}
			res.Notes = append(res.Notes, fmt.Sprintf("parallel speedup of %d TCP ranks over one process: %.3f (%.3fs / %.3fs)",
				w.Ranks, one[0].Seconds/untraced[0].Seconds, one[0].Seconds, untraced[0].Seconds))
		}
	}

	// Replays of the batch-stage layers on batch 0 of the same samples.
	readMBs, err := replayRead(batch.dir, batch.ds)
	if err != nil {
		return err
	}
	br, err := replayBatch(ctx, batch.ds, w.Engine.Batches, w.Engine.Workers)
	if err != nil {
		return err
	}
	pr := replayPopcount(br.WordRows, res.Host.LLCBytes)
	m["samplefile.read_mb_s"] = scalar(readMBs, "MB/s")
	m["dist.compact_s"] = scalar(br.CompactS, "s")
	m["dist.compact_mrows_s"] = scalar(float64(br.Rows)/br.CompactS/1e6, "Mrows/s")
	m["bitmat.pack_s"] = scalar(br.PackS, "s")
	m["bitmat.dense_cols_frac"] = scalar(br.DenseColsFrac, "ratio")
	m["bitmat.word_occupancy"] = scalar(br.WordOccupancy, "ratio")
	m["bitmat.gram_s"] = scalar(br.GramS, "s")
	m["bitmat.gram_gwordops_s"] = scalar(br.GramWordOps/br.GramS/1e9, "Gwordops/s")
	m["bitutil.popcount_gwords_s.cache"] = scalar(pr.CacheGwordsS, "Gwords/s")
	m["bitutil.popcount_gwords_s.mem"] = scalar(pr.MemGwordsS, "Gwords/s")
	replay["batch0"] = br
	replay["popcount"] = pr
	if !pr.MemIs4xLLC {
		res.Notes = append(res.Notes, fmt.Sprintf("popcount .mem streams two %d MiB arrays, less than 4x the reported %d MiB last-level cache",
			pr.MemArrayMB, res.Host.LLCBytes>>20))
	}

	// The serve stage: the index calls timed apart, replays on a copy of
	// the index, then the real service for the counts and the HTTP split.
	bi, err := buildIndex(in.serve.corpus, w.Serve.SketchK, filepath.Join(work, "corpus.idx"))
	if err != nil {
		return err
	}
	ir, err := replayIndex(ctx, w.Serve, in.serve, bi.Path)
	if err != nil {
		return err
	}
	sv, err := e.runServe(ctx, w.Serve, in.serve, bi.Path, t)
	if err != nil {
		return err
	}
	gated := 0
	for _, q := range in.serve.queries {
		if q.Threshold > 0 {
			gated++
		}
	}
	cr := sv.AfterR.Counters
	m["index.build_s"] = scalar(bi.BuildS, "s")
	m["indexfile.write_s"] = scalar(bi.WriteS, "s")
	m["indexfile.bytes"] = scalar(float64(bi.Bytes), "bytes")
	m["indexfile.bytes_per_nnz"] = scalar(float64(bi.Bytes)/float64(in.serve.corpus.nnz), "B/nnz")
	m["indexfile.open_s"] = scalar(ir.OpenS, "s")
	m["indexfile.load_s"] = scalar(ir.LoadS, "s")
	m["index.query_direct_p50_ms"] = percentile(ir.QueryDirectMS, 0.5, "ms")
	m["index.append_direct_p50_ms"] = percentile(ir.AppendDirectMS, 0.5, "ms")
	m["index.popcounts_per_query"] = scalar(float64(cr.Popcounts)/float64(max(cr.Queries, 1)), "count")
	m["index.segments_after_storm"] = scalar(float64(sv.AfterStorm.Segments), "count")
	m["minhash.sketch_build_s"] = scalar(ir.SketchBuildS, "s")
	m["minhash.gate_skip_ratio"] = scalar(float64(cr.SketchSkips)/float64(max(gated*in.serve.corpus.N, 1)), "ratio")
	m["similarityd.compute_p50_ms"] = percentile(sv.ComputeMS, 0.5, "ms")
	m["similarityd.http_overhead_p50_ms"] = percentile(sv.OverheadMS, 0.5, "ms")
	m["similarityd.non200"] = scalar(float64(sv.Non200), "count")

	res.TraceFile = filepath.Join("out", "trace-"+w.Name+".json")
	return writeJSONFile(filepath.Join(e.Out, "trace-"+w.Name+".json"), traceFile{
		Workload: w.Name, Seed: cfg.Seed, Host: res.Host, Layers: layers, Metrics: m, Replay: replay,
		Stats: map[string]any{"solve": stats, "traced_rank0": traced[0].Stats}, Spans: rec.spans, Notes: res.Notes,
	})
}

// runStatsMetrics reports the counts and times the program itself keeps in
// RunStats. Layers a run did not use report zero.
func runStatsMetrics(m map[string]metric, s *core.RunStats, nnz int64) {
	ingest := core.IngestStats{}
	if s.Ingest != nil {
		ingest = *s.Ingest
	}
	m["samplefile.loads"] = scalar(float64(ingest.Loads), "count")
	m["samplefile.evictions"] = scalar(float64(ingest.Evictions), "count")
	m["samplefile.load_s"] = scalar(ingest.LoadSeconds, "s")
	m["samplefile.peak_resident"] = scalar(float64(ingest.PeakResident), "count")

	var active int64
	for _, a := range s.ActiveRowsPerBatch {
		active += a
	}
	m["core.batches"] = scalar(float64(s.Batches), "count")
	m["core.nnz"] = scalar(float64(s.IndicatorNonzeros), "count")
	m["core.active_rows"] = scalar(float64(active), "count")
	m["core.batch_s_sum"] = scalar(sum(s.BatchSeconds), "s")
	m["core.finalize_s"] = scalar(s.TotalSeconds-sum(s.BatchSeconds), "s")
	m["tile.tiles"] = scalar(float64(s.TilesEmitted), "count")
	m["tile.peak_words"] = scalar(float64(s.PeakTileWords), "words")

	comm := bsp.Stats{}
	if s.Comm != nil {
		comm = *s.Comm
	}
	var hMax int64
	for _, h := range comm.HRelations {
		hMax = max(hMax, h)
	}
	m["bsp.supersteps"] = scalar(float64(comm.Supersteps), "count")
	m["bsp.bytes_total"] = scalar(float64(comm.TotalBytes), "bytes")
	m["bsp.h_max_bytes"] = scalar(float64(hMax), "bytes")
	m["bsp.bytes_per_nnz"] = scalar(float64(comm.TotalBytes)/float64(max(nnz, 1)), "B/nnz")

	wire := bsp.TransportStats{}
	if s.Transport != nil {
		wire = *s.Transport
	}
	m["tcptransport.bytes_sent"] = scalar(float64(wire.BytesSent), "bytes")
	m["tcptransport.frames"] = scalar(float64(wire.FramesSent), "count")
	m["tcptransport.dials"] = scalar(float64(wire.Dials), "count")
	m["tcptransport.retries"] = scalar(float64(wire.Retries), "count")
	m["tcptransport.max_step_s"] = scalar(wire.MaxStepSeconds, "s")
}

// inProcessRuns repeats the batch stage in-process: once traced, once
// untraced (their difference is the tracing overhead) and, for a
// multi-rank workload, once more over the in-process memory transport.
func inProcessRuns(ctx context.Context, w workload, dir string, rec *recorder) (traced, untraced, mem []rankRun, err error) {
	overTCP := func(rec *recorder, run string) ([]rankRun, error) {
		if w.Ranks <= 1 {
			return engineRun(ctx, w, dir, rec, run, nil)
		}
		ts, closeAll, err := tcpEndpoints(w.Ranks)
		if err != nil {
			return nil, err
		}
		defer closeAll()
		return engineRun(ctx, w, dir, rec, run, ts)
	}
	if untraced, err = overTCP(nil, "untraced"); err != nil {
		return nil, nil, nil, err
	}
	if traced, err = overTCP(rec, "traced"); err != nil {
		return nil, nil, nil, err
	}
	if w.Ranks > 1 {
		if mem, err = engineRun(ctx, w, dir, nil, "mem", bsp.MemCluster(w.Ranks)); err != nil {
			return nil, nil, nil, err
		}
	}
	return traced, untraced, mem, nil
}

// replayWriteTSV times output.WriteTSV of the gathered similarity matrix.
func replayWriteTSV(path string, collect *tile.Collect) (seconds float64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	start := time.Now()
	if err := output.WriteTSV(bw, collect.Names(), collect.S()); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
