package tcptransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"genomeatscale/internal/bsp"
)

// newLoopbackCluster builds p connected TCP transport endpoints over
// pre-bound loopback listeners (port 0, so tests never race on addresses).
func newLoopbackCluster(t *testing.T, p int, opts Options) []bsp.Transport {
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
	ts := make([]bsp.Transport, p)
	for r := 0; r < p; r++ {
		o := opts
		o.Listener = listeners[r]
		tr, err := New(r, peers, nil, o)
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

// waitForGoroutines polls until the goroutine count returns to the
// baseline, failing the test on leak.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), before)
}

func TestTCPRingExchange(t *testing.T) {
	const p = 4
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 10 * time.Second})
	_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		for step := 0; step < 3; step++ {
			next := (proc.Rank() + 1) % proc.NProcs()
			proc.Send(next, 5, []int64{int64(proc.Rank()), int64(step)})
			proc.Sync()
			msgs := proc.RecvAll(5)
			if len(msgs) != 1 {
				return fmt.Errorf("step %d: got %d messages, want 1", step, len(msgs))
			}
			prev := (proc.Rank() + proc.NProcs() - 1) % proc.NProcs()
			got := msgs[0].Payload.([]int64)
			if msgs[0].From != prev || got[0] != int64(prev) || got[1] != int64(step) {
				return fmt.Errorf("step %d: wrong message %v from %d", step, got, msgs[0].From)
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPCollectives(t *testing.T) {
	const p = 4
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 10 * time.Second})
	stats, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		// AllReduce of ranks: everyone must see the sum.
		total := bsp.AllReduce(proc, proc.Rank(), func(a, b int) int { return a + b })
		want := p * (p - 1) / 2
		if total != want {
			return fmt.Errorf("AllReduce = %d, want %d", total, want)
		}
		// Bcast from rank 2.
		val := proc.Rank() * 100
		got := bsp.Bcast(proc, 2, val)
		if got != 200 {
			return fmt.Errorf("Bcast = %d, want 200", got)
		}
		// Gather slices to rank 0, indexed by sender rank.
		parts := bsp.Gather(proc, 0, []uint64{uint64(proc.Rank()), uint64(proc.Rank())})
		if proc.Rank() == 0 {
			var rows []uint64
			for _, part := range parts {
				rows = append(rows, part...)
			}
			if len(rows) != 2*p {
				return fmt.Errorf("Gather: %d values, want %d", len(rows), 2*p)
			}
			for i, v := range rows {
				if v != uint64(i/2) {
					return fmt.Errorf("Gather: value %d = %d, want %d", i, v, i/2)
				}
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// The transport counters must show real wire traffic.
	ws := stats[0].Transport
	if ws == nil {
		t.Fatal("rank 0 has no transport stats")
	}
	if ws.Dials == 0 || ws.FramesSent == 0 || ws.BytesSent == 0 || ws.BytesRecv == 0 {
		t.Errorf("transport stats not populated: %+v", ws)
	}
	if ws.MaxStepSeconds <= 0 {
		t.Errorf("MaxStepSeconds = %v, want > 0", ws.MaxStepSeconds)
	}
}

// TestTCPMatchesMemTransport runs the same nontrivial SPMD program over the
// memory and TCP transports and requires identical delivered traffic and
// per-rank accounting.
func TestTCPMatchesMemTransport(t *testing.T) {
	const p = 3
	program := func(results [][]string) func(*bsp.Proc) error {
		return func(proc *bsp.Proc) error {
			var trace []string
			for step := 0; step < 2; step++ {
				for q := 0; q < proc.NProcs(); q++ {
					proc.Send(q, 9, []int{proc.Rank(), q, step})
					proc.Send(q, 9, []int{proc.Rank(), q, step + 100})
				}
				proc.Sync()
				for _, m := range proc.RecvAll(9) {
					trace = append(trace, fmt.Sprintf("%d:%d:%v", m.From, m.Seq, m.Payload))
				}
			}
			results[proc.Rank()] = trace
			return nil
		}
	}
	memRes := make([][]string, p)
	if _, errs := bsp.RunCluster(context.Background(), bsp.MemCluster(p), program(memRes)); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("mem run failed: %v", errs)
	}
	tcpRes := make([][]string, p)
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 10 * time.Second})
	if _, errs := bsp.RunCluster(context.Background(), ts, program(tcpRes)); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("tcp run failed: %v", errs)
	}
	for r := 0; r < p; r++ {
		if len(memRes[r]) != len(tcpRes[r]) {
			t.Fatalf("rank %d: mem %d msgs, tcp %d msgs", r, len(memRes[r]), len(tcpRes[r]))
		}
		for i := range memRes[r] {
			if memRes[r][i] != tcpRes[r][i] {
				t.Errorf("rank %d msg %d: mem %q, tcp %q", r, i, memRes[r][i], tcpRes[r][i])
			}
		}
	}
}

// TestTCPEarlyFinish mirrors the in-process early-finish semantics: a rank
// that completes after zero supersteps must not block the others.
func TestTCPEarlyFinish(t *testing.T) {
	const p = 3
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 10 * time.Second})
	stats, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		if proc.Rank() == 0 {
			return nil // finishes before any superstep
		}
		for step := 0; step < 4; step++ {
			other := 3 - proc.Rank() // 1 <-> 2
			proc.Send(other, 1, []int{step})
			proc.Sync()
			if got := len(proc.RecvAll(1)); got != 1 {
				return fmt.Errorf("step %d: %d messages, want 1", step, got)
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if stats[1].Supersteps != 4 {
		t.Errorf("rank 1 Supersteps = %d, want 4", stats[1].Supersteps)
	}
}

// TestTCPSendToFinishedRankDropped: messages addressed to a finished rank
// are dropped rather than erroring, matching the in-process runtime.
func TestTCPSendToFinishedRankDropped(t *testing.T) {
	const p = 3
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 10 * time.Second})
	_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		if proc.Rank() == 0 {
			return nil
		}
		// Give rank 0's FIN time to reach everyone, then keep addressing it.
		time.Sleep(200 * time.Millisecond)
		for step := 0; step < 2; step++ {
			proc.Send(0, 1, []int{step})
			other := 3 - proc.Rank()
			proc.Send(other, 2, []int{step})
			proc.Sync()
			if got := len(proc.RecvAll(2)); got != 1 {
				return fmt.Errorf("step %d: %d messages, want 1", step, got)
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestTCPStallTimesOutWithRankFailedError: a rank that stops synchronising
// (sleeps through the step deadline) is blamed by every survivor.
func TestTCPStallTimesOutWithRankFailedError(t *testing.T) {
	const p = 3
	const victim = 1
	before := runtime.NumGoroutine()
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 400 * time.Millisecond})
	start := time.Now()
	_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		if proc.Rank() == victim {
			time.Sleep(1500 * time.Millisecond) // stall far past the deadline
			proc.Sync()                         // poisoned by then
			return nil
		}
		proc.Sync()
		proc.Sync()
		return nil
	})
	elapsed := time.Since(start)
	for _, r := range []int{0, 2} {
		var rfe *bsp.RankFailedError
		if !errors.As(errs[r], &rfe) {
			t.Fatalf("rank %d error = %v, want RankFailedError", r, errs[r])
		}
		if rfe.Rank != victim {
			t.Errorf("rank %d blames rank %d, want %d", r, rfe.Rank, victim)
		}
	}
	if elapsed > 5*time.Second {
		t.Errorf("survivors took %v to unwind, want well under 5s", elapsed)
	}
	for _, tr := range ts {
		tr.Close()
	}
	waitForGoroutines(t, before)
}

// TestTCPCancelMidSuperstep: context cancellation while ranks are blocked
// at the barrier must close everything down, return ctx.Err() on the
// cancelled rank, and leak no goroutines.
func TestTCPCancelMidSuperstep(t *testing.T) {
	const p = 3
	before := runtime.NumGoroutine()
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{}, p)
	go func() {
		for i := 0; i < p; i++ {
			<-entered
		}
		cancel()
	}()
	_, errs := bsp.RunCluster(ctx, ts, func(proc *bsp.Proc) error {
		if proc.Rank() == 0 {
			entered <- struct{}{}
			<-ctx.Done() // never reaches the barrier: peers block there
			return ctx.Err()
		}
		entered <- struct{}{}
		proc.Sync()
		return nil
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: nil error after cancel", r)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			var rfe *bsp.RankFailedError
			if !errors.As(err, &rfe) {
				t.Errorf("rank %d error = %v, want context.Canceled or RankFailedError", r, err)
			}
		}
	}
	for _, tr := range ts {
		tr.Close()
	}
	waitForGoroutines(t, before)
}

// TestTCPDialRetry: a transport whose peer listener appears late must
// retry and succeed, counting the retries.
func TestTCPDialRetry(t *testing.T) {
	// Reserve an address for rank 1 but don't listen yet.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := probe.Addr().String()
	probe.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{ln0.Addr().String(), addr1}
	opts := Options{StepTimeout: 10 * time.Second, DialBackoff: 20 * time.Millisecond, DialAttempts: 50}
	t0, err := New(0, peers, nil, Options{Listener: ln0, StepTimeout: opts.StepTimeout,
		DialBackoff: opts.DialBackoff, DialAttempts: opts.DialAttempts})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	// Rank 1 starts 300ms late.
	done := make(chan error, 2)
	go func() {
		_, err := bsp.RunRank(context.Background(), t0, func(proc *bsp.Proc) error {
			proc.Send(1, 1, []int{42})
			proc.Sync()
			return nil
		})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	t1, err := New(1, peers, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	go func() {
		_, err := bsp.RunRank(context.Background(), t1, func(proc *bsp.Proc) error {
			proc.Sync()
			if got := len(proc.RecvAll(1)); got != 1 {
				return fmt.Errorf("%d messages, want 1", got)
			}
			return nil
		})
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := t0.TransportStats(); s.Retries == 0 {
		t.Errorf("expected dial retries, stats = %+v", s)
	}
}

// TestTCPSeverConnection: abruptly closing one rank's transport mid-run
// (the "sever" fault) must unwind survivors with a RankFailedError blaming
// that rank.
func TestTCPSeverConnection(t *testing.T) {
	const p = 3
	const victim = 2
	ts := newLoopbackCluster(t, p, Options{StepTimeout: 2 * time.Second})
	_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		if proc.Rank() == victim {
			// One clean superstep, then die without FIN or ABORT.
			proc.Sync()
			ts[victim].Close()
			return errors.New("severed")
		}
		proc.Sync()
		proc.Sync()
		proc.Sync()
		return nil
	})
	for _, r := range []int{0, 1} {
		var rfe *bsp.RankFailedError
		if !errors.As(errs[r], &rfe) {
			t.Fatalf("rank %d error = %v, want RankFailedError", r, errs[r])
		}
		if rfe.Rank != victim {
			t.Errorf("rank %d blames rank %d, want %d", r, rfe.Rank, victim)
		}
	}
}

// TestTCPExchangeAfterCloseFails pins the single-run contract.
func TestTCPExchangeAfterCloseFails(t *testing.T) {
	ts := newLoopbackCluster(t, 2, Options{StepTimeout: time.Second})
	ts[0].Close()
	if _, err := ts[0].Exchange(0, nil); err == nil {
		t.Fatal("Exchange after Close succeeded, want error")
	}
}
