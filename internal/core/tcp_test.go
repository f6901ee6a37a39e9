package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/bsp/tcptransport"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/sparse"
)

// newTCPEndpoints builds p connected loopback transport endpoints carrying
// the dist wire codec — the same stack the CLIs assemble for -transport tcp.
func newTCPEndpoints(t *testing.T, p int, stepTimeout time.Duration) []*tcptransport.Transport {
	t.Helper()
	listeners := make([]net.Listener, p)
	peers := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[r] = ln
		peers[r] = ln.Addr().String()
	}
	ts := make([]*tcptransport.Transport, p)
	for r := 0; r < p; r++ {
		tr, err := tcptransport.New(r, peers, dist.NewWireCodec(),
			tcptransport.Options{Listener: listeners[r], StepTimeout: stepTimeout})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		ts[r] = tr
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

// TestTCPEquivalence runs the engine's distributed pipeline over the TCP
// transport — every rank an Engine of its own, exactly as separate
// processes would run it — and requires rank 0's gathered B, S and D to be
// byte-identical to the in-process transport's result on the same dataset.
func TestTCPEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	intEq := func(a, b int64) bool { return a == b }
	floatEq := func(a, b float64) bool { return a == b }

	for _, procs := range []int{2, 4} {
		for _, batches := range []int{1, 3} {
			t.Run(fmt.Sprintf("p%d_l%d", procs, batches), func(t *testing.T) {
				n := 11
				m := uint64(400)
				ds := randomDataset(rng, n, m, 0.05)

				opts := DefaultOptions()
				opts.Procs = procs
				opts.BatchCount = batches
				opts.Workers = 1

				inProc, err := run(ds, opts)
				if err != nil {
					t.Fatal(err)
				}

				ts := newTCPEndpoints(t, procs, 20*time.Second)
				results := make([]*Result, procs)
				errs := make([]error, procs)
				var wg sync.WaitGroup
				for r := 0; r < procs; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rOpts := opts
						rOpts.Transport = ts[r]
						e, err := NewEngine(rOpts)
						if err != nil {
							errs[r] = err
							return
						}
						results[r], errs[r] = e.Similarity(context.Background(), ds)
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}

				root := results[0]
				if !sparse.Equal(inProc.B, root.B, intEq) {
					t.Error("TCP B not byte-identical to in-process")
				}
				if !sparse.Equal(inProc.S, root.S, floatEq) {
					t.Error("TCP S not byte-identical to in-process")
				}
				if !sparse.Equal(inProc.D, root.D, floatEq) {
					t.Error("TCP D not byte-identical to in-process")
				}
				for i := 0; i < n; i++ {
					if root.Cardinalities[i] != inProc.Cardinalities[i] {
						t.Fatalf("cardinality mismatch for sample %d", i)
					}
				}
				// Each rank reports its local wire counters.
				for r, res := range results {
					ws := res.Stats.Transport
					if ws == nil {
						t.Fatalf("rank %d: no transport stats", r)
					}
					if ws.BytesSent == 0 || ws.BytesRecv == 0 {
						t.Errorf("rank %d: empty wire counters %+v", r, ws)
					}
				}
			})
		}
	}
}

// TestTCPEngineCancel cancels a run mid-flight: every rank must unwind —
// the cancelled one with ctx.Err(), the others with either ctx.Err() (their
// own watcher fired) or a RankFailedError — with no goroutine leaks.
func TestTCPEngineCancel(t *testing.T) {
	const procs = 2
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(99))
	ds := randomDataset(rng, 9, 500, 0.05)

	ts := newTCPEndpoints(t, procs, 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts: deterministic

	errs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Procs = procs
			opts.BatchCount = 2
			opts.Workers = 1
			opts.Transport = ts[r]
			e, err := NewEngine(opts)
			if err != nil {
				errs[r] = err
				return
			}
			_, errs[r] = e.Similarity(ctx, ds)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: nil error from cancelled run", r)
		}
		var rfe *bsp.RankFailedError
		if !errors.Is(err, context.Canceled) && !errors.As(err, &rfe) {
			t.Errorf("rank %d error = %v, want context.Canceled or RankFailedError", r, err)
		}
	}
	for _, tr := range ts {
		tr.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), before)
}

// TestTransportOptionValidation pins the option incompatibilities.
func TestTransportOptionValidation(t *testing.T) {
	ts := bsp.MemCluster(3)
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()

	opts := DefaultOptions()
	opts.Transport = ts[0]
	opts.Procs = 2 // mismatch: transport spans 3
	if err := opts.Validate(); err == nil {
		t.Error("Procs/NProcs mismatch validated")
	}

	opts.Procs = 3
	if err := opts.Validate(); err != nil {
		t.Errorf("matching Procs rejected: %v", err)
	}

	opts.Autotune = true
	if err := opts.Validate(); err == nil {
		t.Error("Autotune+Transport validated")
	}
	opts.Autotune = false

	opts.Procs = 1
	opts.Transport = nil
	opts.Sketch = SketchOptions{Threshold: 0.5}
	if err := opts.Validate(); err != nil {
		t.Errorf("sketch alone rejected: %v", err)
	}
	opts.Procs = 3
	opts.Transport = ts[0]
	opts.Sketch = SketchOptions{Threshold: 0.5}
	if err := opts.Validate(); err == nil {
		t.Error("Sketch+Transport validated")
	}
}
