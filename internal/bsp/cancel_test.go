package bsp

import (
	"context"
	"errors"
	gort "runtime"
	"testing"
	"time"
)

// TestRunCtxCancelUnblocksBarrier parks all but one rank at a Sync barrier
// while the last rank waits for cancellation; the cancel must wake the
// parked ranks, join every goroutine and surface ctx.Err().
func TestRunCtxCancelUnblocksBarrier(t *testing.T) {
	before := gort.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := RunCtx(ctx, 4, func(p *Proc) error {
		if p.Rank() == 3 {
			// Stand-in for a long local compute phase: this rank never
			// reaches the barrier the other three are parked at.
			<-ctx.Done()
			return ctx.Err()
		}
		p.Sync() // parks: rank 3 never arrives
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestRunCtxCancelBetweenSupersteps cancels while ranks are in a local
// compute phase; the abort is observed at the next Sync.
func TestRunCtxCancelBetweenSupersteps(t *testing.T) {
	before := gort.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunCtx(ctx, 3, func(p *Proc) error {
		p.Sync()
		if p.Rank() == 0 {
			cancel()
		}
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			p.Sync()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitForGoroutines(t, before)
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	stats, err := RunCtx(context.Background(), 4, func(p *Proc) error {
		v := Bcast(p, 0, p.Rank()*0+42)
		if v != 42 {
			t.Errorf("rank %d: got %d", p.Rank(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps == 0 {
		t.Error("no supersteps recorded")
	}
}

// waitForGoroutines polls until the goroutine count returns to (near) its
// pre-run level, failing the test if worker goroutines leaked.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gort.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, gort.NumGoroutine())
		}
		gort.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
