package genomeatscale

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// TestFacadeTCPTransport runs a 2-rank job through the public surface —
// NewTCPTransport + WithTransport — and checks rank 0's matrix matches
// the sequential run, with wire counters reported.
func TestFacadeTCPTransport(t *testing.T) {
	ds, err := NewDataset(
		[]string{"x", "y", "z"},
		[][]uint64{{1, 2, 3, 4}, {3, 4, 5, 6}, {100, 101}},
		200,
	)
	if err != nil {
		t.Fatal(err)
	}
	seq := gather(t, ds)

	peers := make([]string, 2)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = ln.Addr().String()
		ln.Close()
	}
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := NewTCPTransport(r, peers, 10*time.Second)
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			e, err := NewEngine(WithTransport(tr), WithBatches(2), WithWorkers(1))
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
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(seq.Similarity(i, j)-root.Similarity(i, j)) > 1e-12 {
				t.Fatalf("TCP run disagrees with sequential at (%d,%d)", i, j)
			}
		}
	}
	for r, res := range results {
		if res.Stats.Transport == nil || res.Stats.Transport.BytesSent == 0 {
			t.Errorf("rank %d: missing wire counters", r)
		}
	}
	if results[1].S != nil {
		t.Error("non-root rank should not hold the gathered matrix")
	}
}
