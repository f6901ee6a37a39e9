package core

import (
	"context"
	"errors"
	"math/rand"
	gort "runtime"
	"testing"
	"time"

	"genomeatscale/internal/tile"
)

// cancelOnSampleDataset wraps a dataset and fires cancel the moment a batch
// range of sample `trigger` is read for the `hits`-th time, placing the
// cancellation right before the pack stage of the batch being sliced — the
// mid-pack scenario.
type cancelOnSampleDataset struct {
	*InMemoryDataset
	trigger int
	hits    int
	seen    int
	cancel  context.CancelFunc
}

func (d *cancelOnSampleDataset) SampleRange(i int, lo, hi uint64) ([]uint64, error) {
	if i == d.trigger {
		d.seen++
		if d.seen == d.hits {
			d.cancel()
		}
	}
	return d.InMemoryDataset.SampleRange(i, lo, hi)
}

// blockOnSampleDataset blocks the rank reading a batch range of sample
// `trigger` until the context is cancelled, while every other rank runs
// ahead to the next BSP barrier — the mid-superstep scenario: most ranks are parked in Sync when
// the cancellation lands.
type blockOnSampleDataset struct {
	*InMemoryDataset
	trigger int
	ctx     context.Context
}

func (d *blockOnSampleDataset) SampleRange(i int, lo, hi uint64) ([]uint64, error) {
	if i == d.trigger {
		<-d.ctx.Done()
	}
	return d.InMemoryDataset.SampleRange(i, lo, hi)
}

// checkCancelled runs fn (which must return promptly once cancelled),
// asserts the error is exactly the context error, bounds the wall time,
// and polls that no goroutines leaked.
func checkCancelled(t *testing.T, fn func() error) {
	t.Helper()
	before := gort.NumGoroutine()
	start := time.Now()
	err := fn()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gort.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, gort.NumGoroutine())
		}
		gort.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCancelMidPackSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomDataset(rng, 24, 2000, 0.05)
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.BatchCount = 2
		opts.Workers = workers
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		// The last sample of the first batch slice trips the cancel, so the
		// pack stage of batch 0 starts with a dead context and must abandon
		// the run there.
		ds := &cancelOnSampleDataset{InMemoryDataset: base, trigger: 23, hits: 2, cancel: cancel}
		checkCancelled(t, func() error {
			res, err := e.Similarity(ctx, ds)
			if res != nil {
				t.Error("cancelled run must not return a result")
			}
			return err
		})
		cancel()
	}
}

func TestCancelMidPackDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := randomDataset(rng, 24, 2000, 0.05)
	opts := DefaultOptions()
	opts.Procs = 4
	opts.Workers = 1
	opts.BatchCount = 2
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ds := &cancelOnSampleDataset{InMemoryDataset: base, trigger: 23, hits: 2, cancel: cancel}
	checkCancelled(t, func() error {
		_, err := e.Similarity(ctx, ds)
		return err
	})
}

func TestCancelMidSuperstepDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randomDataset(rng, 16, 800, 0.06)
	for _, streaming := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Procs = 4
		opts.Workers = 1
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		// Rank owning sample 1 blocks inside its batch read; the other ranks
		// race ahead to the filter exchange and park at the Sync barrier.
		// The timer then cancels mid-superstep: the parked ranks must be
		// woken and unwound, the blocked rank released, and ctx.Err()
		// surfaced without leaking any rank goroutine.
		ds := &blockOnSampleDataset{InMemoryDataset: base, trigger: 1, ctx: ctx}
		timer := time.AfterFunc(30*time.Millisecond, cancel)
		checkCancelled(t, func() error {
			var err error
			if streaming {
				_, err = e.Stream(ctx, ds, tile.Discard)
			} else {
				_, err = e.Similarity(ctx, ds)
			}
			return err
		})
		timer.Stop()
		cancel()
	}
}

func TestCancelBeforeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ds := randomDataset(rng, 8, 300, 0.05)
	for _, procs := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Procs = procs
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.Similarity(ctx, ds); !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d: want context.Canceled, got %v", procs, err)
		}
	}
}

func TestNilContextRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ds := randomDataset(rng, 6, 300, 0.05)
	e, err := NewEngine(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 nil ctx is documented to mean context.Background
	res, err := e.Similarity(nil, ds) //nolint:staticcheck
	if err != nil {
		t.Fatal(err)
	}
	if res.S == nil {
		t.Error("nil ctx run must still gather")
	}
}
