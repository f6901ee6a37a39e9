package bsp

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestBarrierCountsSupersteps(t *testing.T) {
	stats, err := Run(5, func(p *Proc) error {
		for i := 0; i < 3; i++ {
			p.Sync()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 3 {
		t.Errorf("Supersteps = %d, want 3", stats.Supersteps)
	}
	if stats.TotalBytes != 0 {
		t.Errorf("a barrier should not move data, moved %d bytes", stats.TotalBytes)
	}
}

func TestBcast(t *testing.T) {
	const procs = 6
	_, err := Run(procs, func(p *Proc) error {
		var val []int64
		if p.Rank() == 2 {
			val = []int64{10, 20, 30}
		}
		got := Bcast(p, 2, val)
		if len(got) != 3 || got[0] != 10 || got[2] != 30 {
			return fmt.Errorf("rank %d: Bcast got %v", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const procs = 5
	_, err := Run(procs, func(p *Proc) error {
		got := Gather(p, 0, int64(p.Rank()*p.Rank()))
		if p.Rank() != 0 {
			if got != nil {
				return fmt.Errorf("non-root rank %d received %v", p.Rank(), got)
			}
			return nil
		}
		for r := 0; r < procs; r++ {
			if got[r] != int64(r*r) {
				return fmt.Errorf("Gather[%d] = %d, want %d", r, got[r], r*r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	const procs = 4
	_, err := Run(procs, func(p *Proc) error {
		got := AllGather(p, int64(p.Rank()+1))
		for r := 0; r < procs; r++ {
			if got[r] != int64(r+1) {
				return fmt.Errorf("rank %d: AllGather[%d] = %d", p.Rank(), r, got[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	const procs = 7
	_, err := Run(procs, func(p *Proc) error {
		x := int64(p.Rank() + 1)
		sum, ok := Reduce(p, 3, x, func(a, b int64) int64 { return a + b })
		if p.Rank() == 3 {
			if !ok || sum != procs*(procs+1)/2 {
				return fmt.Errorf("Reduce = %d,%v", sum, ok)
			}
		} else if ok {
			return fmt.Errorf("rank %d: ok should be false off-root", p.Rank())
		}
		all := AllReduce(p, x, func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if all != procs {
			return fmt.Errorf("AllReduce max = %d, want %d", all, procs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSlice(t *testing.T) {
	const procs = 4
	_, err := Run(procs, func(p *Proc) error {
		xs := []int64{int64(p.Rank()), 1, int64(2 * p.Rank())}
		got := AllReduceSlice(p, xs, func(a, b int64) int64 { return a + b })
		want := []int64{0 + 1 + 2 + 3, procs, 2 * (0 + 1 + 2 + 3)}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("rank %d: AllReduceSlice[%d] = %d, want %d", p.Rank(), i, got[i], want[i])
			}
		}
		// Input must not be mutated.
		if xs[0] != int64(p.Rank()) {
			return fmt.Errorf("rank %d: input slice mutated", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	const procs = 5
	_, err := Run(procs, func(p *Proc) error {
		out := make([][]int64, procs)
		for r := 0; r < procs; r++ {
			out[r] = []int64{int64(p.Rank()*100 + r)}
		}
		in := AllToAll(p, out)
		for r := 0; r < procs; r++ {
			want := int64(r*100 + p.Rank())
			if len(in[r]) != 1 || in[r][0] != want {
				return fmt.Errorf("rank %d: in[%d] = %v, want [%d]", p.Rank(), r, in[r], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllLengthPanics(t *testing.T) {
	_, err := Run(3, func(p *Proc) error {
		AllToAll(p, [][]int64{{1}})
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// SortedAllGatherKeys all-gathers per-rank integer keys into one sorted
// list on every rank: a deterministic global ordering for tests.
func SortedAllGatherKeys(p *Proc, keys []int) []int {
	var all []int
	for _, part := range AllGather(p, keys) {
		all = append(all, part...)
	}
	sort.Ints(all)
	return all
}

func TestSortedAllGatherKeys(t *testing.T) {
	_, err := Run(3, func(p *Proc) error {
		keys := []int{p.Rank() * 2, p.Rank()*2 + 1}
		all := SortedAllGatherKeys(p, keys)
		for i := 0; i < 6; i++ {
			if all[i] != i {
				return fmt.Errorf("rank %d: sorted keys %v", p.Rank(), all)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: AllReduce with addition equals the sequential sum for any rank
// count in [1,9] and any per-rank values.
func TestAllReduceMatchesSequentialProperty(t *testing.T) {
	f := func(vals []int32, pRaw uint8) bool {
		procs := int(pRaw%9) + 1
		perRank := make([]int64, procs)
		for i, v := range vals {
			perRank[i%procs] += int64(v)
		}
		var want int64
		for _, v := range perRank {
			want += v
		}
		ok := true
		_, err := Run(procs, func(p *Proc) error {
			got := AllReduce(p, perRank[p.Rank()], func(a, b int64) int64 { return a + b })
			if got != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Collectives must not leave undrained messages behind, otherwise later
// collectives could consume stale traffic.
func TestCollectivesDrainInbox(t *testing.T) {
	_, err := Run(4, func(p *Proc) error {
		Bcast(p, 0, []int64{1, 2})
		AllGather(p, int64(p.Rank()))
		AllReduce(p, int64(1), func(a, b int64) int64 { return a + b })
		AllToAll(p, [][]int64{{1}, {2}, {3}, {4}})
		if len(p.inbox) != 0 {
			return fmt.Errorf("rank %d: %d stale messages", p.Rank(), len(p.inbox))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
