package faultinject

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/bsp/tcptransport"
)

// newTCPCluster builds p connected TCP endpoints over loopback with
// pre-bound port-0 listeners.
func newTCPCluster(t *testing.T, p int, opts tcptransport.Options) []bsp.Transport {
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
		tr, err := tcptransport.New(r, peers, nil, o)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		ts[r] = tr
	}
	return ts
}

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

// TestKillARankMatrix is the acceptance matrix: for every fault mode ×
// injection superstep, every surviving rank must return a RankFailedError
// identifying the failed rank, within the deadline, with no hangs and no
// goroutine leaks.
//
// Modes:
//
//	sever      — the victim's transport dies abruptly (no FIN, no ABORT)
//	timeout    — the victim's program stalls past the step deadline
//	rankerror  — the victim's program returns an error
//	delay      — a faultinject Delay rule holds the victim's exchange
//	             past the step deadline (slow peer turned fatal)
func TestKillARankMatrix(t *testing.T) {
	const p = 4
	const victim = 2
	const stepTimeout = 400 * time.Millisecond
	const stall = 1500 * time.Millisecond
	modes := []string{"sever", "timeout", "rankerror", "delay"}
	rankErr := errors.New("injected rank failure")

	for _, mode := range modes {
		for _, failStep := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/step%d", mode, failStep), func(t *testing.T) {
				before := runtime.NumGoroutine()
				ts := newTCPCluster(t, p, tcptransport.Options{StepTimeout: stepTimeout})
				// The victim's transport carries the mode's fault rule;
				// program-level modes (timeout, rankerror) fire in fn.
				switch mode {
				case "sever":
					ts[victim] = Wrap(ts[victim], Rule{Mode: Sever, Step: failStep})
				case "delay":
					ts[victim] = Wrap(ts[victim], Rule{Mode: Delay, Step: failStep, Delay: stall})
				}

				start := time.Now()
				_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
					for step := 0; step < 4; step++ {
						if proc.Rank() == victim && step == failStep {
							switch mode {
							case "timeout":
								time.Sleep(stall)
							case "rankerror":
								return rankErr
							}
						}
						next := (proc.Rank() + 1) % proc.NProcs()
						proc.Send(next, 1, []int64{int64(step)})
						proc.Sync()
						proc.RecvAll(1)
					}
					return nil
				})
				elapsed := time.Since(start)

				for r := 0; r < p; r++ {
					if r == victim {
						if errs[r] == nil {
							t.Errorf("victim rank %d returned nil error", r)
						}
						continue
					}
					var rfe *bsp.RankFailedError
					if !errors.As(errs[r], &rfe) {
						t.Errorf("rank %d error = %v, want RankFailedError", r, errs[r])
						continue
					}
					if rfe.Rank != victim {
						t.Errorf("rank %d blames rank %d, want %d", r, rfe.Rank, victim)
					}
				}
				if limit := stall + 4*stepTimeout + 5*time.Second; elapsed > limit {
					t.Errorf("run took %v, want < %v", elapsed, limit)
				}
				for _, tr := range ts {
					tr.Close()
				}
				waitForGoroutines(t, before)
			})
		}
	}
}

// TestSlowPeerWithinDeadlineSurvives: a delay smaller than the step
// deadline must not fail the run — slow is not dead.
func TestSlowPeerWithinDeadlineSurvives(t *testing.T) {
	const p = 3
	ts := newTCPCluster(t, p, tcptransport.Options{StepTimeout: 5 * time.Second})
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	ts[1] = Wrap(ts[1], Rule{Mode: Delay, Step: -1, Delay: 100 * time.Millisecond})
	_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		for step := 0; step < 2; step++ {
			proc.Send((proc.Rank()+1)%p, 1, []int{step})
			proc.Sync()
			if len(proc.RecvAll(1)) != 1 {
				return errors.New("missing message")
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

// TestDuplicateDelivery: a Duplicate rule delivers the message twice with
// the same Seq — receivers see the at-least-once pathology.
func TestDuplicateDelivery(t *testing.T) {
	ts := bsp.MemCluster(2)
	ts[0] = Wrap(ts[0], Rule{Mode: Duplicate, Step: 0, Peer: 1})
	_, errs := bsp.RunCluster(context.Background(), ts, func(proc *bsp.Proc) error {
		if proc.Rank() == 0 {
			proc.Send(1, 3, []int{7})
		}
		proc.Sync()
		if proc.Rank() == 1 {
			msgs := proc.RecvAll(3)
			if len(msgs) != 2 {
				return fmt.Errorf("got %d copies, want 2", len(msgs))
			}
			if msgs[0].Seq != msgs[1].Seq {
				return fmt.Errorf("duplicate changed Seq: %d vs %d", msgs[0].Seq, msgs[1].Seq)
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

// TestSeededJitterIsDeterministic: the same seed requests the same delay
// schedule, step for step, and another seed a different one. The requested
// delays are recorded through the transport's sleep hook — measuring the
// sleeps themselves would test the host's scheduler.
func TestSeededJitterIsDeterministic(t *testing.T) {
	const maxJitter = 50 * time.Millisecond
	schedule := func(seed int64) []time.Duration {
		tr := WrapSeeded(bsp.MemCluster(1)[0], seed, maxJitter)
		var out []time.Duration
		tr.sleep = func(d time.Duration) { out = append(out, d) }
		for step := 0; step < 5; step++ {
			if _, err := tr.Exchange(step, nil); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		return out
	}
	a, b, other := schedule(42), schedule(42), schedule(43)
	if len(a) != 5 {
		t.Fatalf("%d delays requested over five steps: %v", len(a), a)
	}
	if !slices.Equal(a, b) {
		t.Errorf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if slices.Equal(a, other) {
		t.Errorf("seeds 42 and 43 request the same schedule: %v", a)
	}
	for _, d := range a {
		if d < 0 || d >= maxJitter {
			t.Errorf("jitter %v outside [0, %v)", d, maxJitter)
		}
	}
}
