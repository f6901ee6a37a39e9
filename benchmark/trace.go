package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/bsp/tcptransport"
	"genomeatscale/internal/core"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/samplefile"
	"genomeatscale/internal/tile"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Spans of one in-process run share Run; Parent is
// the ID of the span that caused this one (0 for a run's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // seconds since the recorder started
	EndS   float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced comparison run is made.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(run, name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartS: time.Since(r.t0).Seconds()})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].EndS = now
	r.mu.Unlock()
}

// layerRow is one line of the per-layer table: every span of one name in
// one run, with self time = duration minus the part of it child spans cover.
type layerRow struct {
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTable folds the spans into the per-layer table.
func (r *recorder) layerTable() []layerRow {
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	rows := make(map[[2]string]*layerRow)
	for _, s := range r.spans {
		key := [2]string{s.Run, s.Name}
		row := rows[key]
		if row == nil {
			row = &layerRow{Run: s.Run, Name: s.Name}
			rows[key] = row
		}
		dur := s.EndS - s.StartS
		row.Count++
		row.TotalS += dur
		row.SelfS += dur - covered(children[s.ID], s.StartS, s.EndS)
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of [lo, hi] that the given spans cover,
// counting overlapping spans once.
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartS < spans[j].StartS })
	var total float64
	end := lo
	for _, s := range spans {
		a, b := max(s.StartS, end), min(s.EndS, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// tracedDataset times the engine's blocking calls into the sample loader.
// Embedding the loader forwards its optional interfaces (EvictingDataset,
// RangePrefetcher, IngestStatser), so the engine takes the same decisions
// as in an untraced run.
type tracedDataset struct {
	*samplefile.DirDataset
	rec    *recorder
	run    string
	parent int
}

func (d *tracedDataset) SampleErr(i int) ([]uint64, error) {
	id := d.rec.begin(d.run, "samplefile.SampleErr", d.parent)
	defer d.rec.end(id)
	return d.DirDataset.SampleErr(i)
}

func (d *tracedDataset) LoadRange(lo, hi int) error {
	id := d.rec.begin(d.run, "samplefile.LoadRange", d.parent)
	defer d.rec.end(id)
	return d.DirDataset.LoadRange(lo, hi)
}

// tracedSink times the engine's calls into the output sink.
type tracedSink struct {
	inner  tile.Sink
	rec    *recorder
	run    string
	parent int
}

func (s *tracedSink) Start(n int, names []string) error {
	id := s.rec.begin(s.run, "tile.Start", s.parent)
	defer s.rec.end(id)
	return tile.Start(s.inner, n, names)
}

func (s *tracedSink) Emit(t *tile.Tile) error {
	id := s.rec.begin(s.run, "tile.Emit", s.parent)
	defer s.rec.end(id)
	return s.inner.Emit(t)
}

func (s *tracedSink) Flush() error {
	id := s.rec.begin(s.run, "tile.Flush", s.parent)
	defer s.rec.end(id)
	return tile.Flush(s.inner)
}

// tracedTransport times a rank's superstep exchanges.
type tracedTransport struct {
	bsp.Transport
	rec    *recorder
	run    string
	parent int
}

func (t *tracedTransport) Exchange(step int, outgoing []bsp.Message) ([]bsp.Message, error) {
	id := t.rec.begin(t.run, "bsp.Exchange", t.parent)
	defer t.rec.end(id)
	return t.Transport.Exchange(step, outgoing)
}

// tracedWireTransport is tracedTransport over a transport that keeps wire
// counters; it forwards them so RunStats.Transport is filled as untraced.
type tracedWireTransport struct {
	*tracedTransport
	stats bsp.TransportStatser
}

func (t tracedWireTransport) TransportStats() bsp.TransportStats { return t.stats.TransportStats() }

// traceTransport decorates inner; the returned *tracedTransport is the
// decorator's core, whose parent span the caller sets once it is known.
func traceTransport(inner bsp.Transport, rec *recorder, run string) (bsp.Transport, *tracedTransport) {
	tt := &tracedTransport{Transport: inner, rec: rec, run: run}
	if ts, ok := inner.(bsp.TransportStatser); ok {
		return tracedWireTransport{tracedTransport: tt, stats: ts}, tt
	}
	return tt, tt
}

// engineOptions mirrors the workload's CLI flags as core.Options.
func engineOptions(w workload) core.Options {
	opts := core.DefaultOptions()
	opts.BatchCount = w.Engine.Batches
	opts.Workers = w.Engine.Workers
	opts.Procs = max(w.Ranks, 1)
	if w.Engine.SketchK > 0 {
		opts.Sketch = core.SketchOptions{Size: w.Engine.SketchK, Threshold: queryThreshold, Slack: core.DefaultSketchSlack}
		opts.SetExplicit(core.FieldSketchSize)
	}
	return opts
}

// newSink returns the sink the workload's CLI mode uses.
func newSink(w workload) tile.Sink {
	switch w.Output {
	case pairsTopK:
		return tile.NewTopK(w.TopK)
	case pairsThreshold:
		return tile.NewThreshold(queryThreshold)
	}
	return tile.NewCollect()
}

// rankRun is one rank's part of an in-process run.
type rankRun struct {
	Seconds float64 // duration of the root span around Engine.Stream
	RootID  int
	Stats   core.RunStats
	Sink    tile.Sink
}

// engineRun repeats the workload's batch stage in-process. Every rank gets
// what a separate process would have: its own loader over the sample
// directory and its own engine. transports is nil for a single-process
// workload and holds one endpoint per rank otherwise. With a recorder the
// loader, the sink and the transport of each rank are decorated and a root
// span wraps Engine.Stream; with rec == nil the run is untraced.
func engineRun(ctx context.Context, w workload, dir string, rec *recorder, run string, transports []bsp.Transport) ([]rankRun, error) {
	// Start every run from a collected heap, so that the garbage of the
	// previous run is not charged to this one.
	runtime.GC()
	ranks := max(len(transports), 1)
	out := make([]rankRun, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				loader, err := samplefile.OpenDirOptions(dir, w.Batch.M, samplefile.DirOptions{Pattern: "*.smp", Prefetch: w.Engine.Prefetch})
				if err != nil {
					return err
				}
				rankName := fmt.Sprintf("%s-rank%d", run, r)
				opts := engineOptions(w)
				var ds core.Dataset = loader
				sink := newSink(w)
				out[r].Sink = sink
				var td *tracedDataset
				var tsink *tracedSink
				var tt *tracedTransport
				if rec != nil {
					td = &tracedDataset{DirDataset: loader, rec: rec, run: rankName}
					tsink = &tracedSink{inner: sink, rec: rec, run: rankName}
					ds, sink = td, tsink
				}
				if transports != nil {
					opts.Transport = transports[r]
					if rec != nil {
						opts.Transport, tt = traceTransport(transports[r], rec, rankName)
					}
				}
				eng, err := core.NewEngine(opts)
				if err != nil {
					return err
				}
				root := rec.begin(rankName, "core.Stream", 0)
				if rec != nil {
					td.parent, tsink.parent = root, root
					if tt != nil {
						tt.parent = root
					}
				}
				start := time.Now()
				res, err := eng.Stream(ctx, ds, sink)
				out[r].Seconds = time.Since(start).Seconds()
				rec.end(root)
				if err != nil {
					return err
				}
				out[r].RootID, out[r].Stats = root, res.Stats
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s rank %d: %w", run, r, err)
		}
	}
	return out, nil
}

// tcpEndpoints builds one connected loopback TCP endpoint per rank — the
// stack the CLI assembles for -transport tcp — and a function closing them.
func tcpEndpoints(ranks int) ([]bsp.Transport, func(), error) {
	listeners := make([]net.Listener, ranks)
	peers := make([]string, ranks)
	closeAll := func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for r := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		listeners[r], peers[r] = ln, ln.Addr().String()
	}
	ts := make([]bsp.Transport, ranks)
	for r := range ts {
		t, err := tcptransport.New(r, peers, dist.NewWireCodec(), tcptransport.Options{Listener: listeners[r]})
		if err != nil {
			for _, made := range ts[:r] {
				made.Close()
			}
			closeAll()
			return nil, nil, err
		}
		ts[r] = t
	}
	return ts, func() {
		for _, t := range ts {
			t.Close()
		}
	}, nil
}
