package bsp

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

func TestRunRejectsNonPositiveProcs(t *testing.T) {
	if _, err := Run(0, func(p *Proc) error { return nil }); err == nil {
		t.Error("Run(0) must fail")
	}
	if _, err := Run(-3, func(p *Proc) error { return nil }); err == nil {
		t.Error("Run(-3) must fail")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	const procs = 4
	stats, err := Run(procs, func(p *Proc) error {
		// Ring: each rank sends its rank to the next rank.
		next := (p.Rank() + 1) % p.NProcs()
		p.Send(next, 7, []int64{int64(p.Rank())})
		p.Sync()
		msgs := p.RecvAll(7)
		if len(msgs) != 1 {
			return fmt.Errorf("rank %d: got %d messages, want 1", p.Rank(), len(msgs))
		}
		want := int64((p.Rank() + procs - 1) % procs)
		got := msgs[0].Payload.([]int64)[0]
		if got != want {
			return fmt.Errorf("rank %d: got %d, want %d", p.Rank(), got, want)
		}
		if msgs[0].From != int(want) {
			return fmt.Errorf("rank %d: wrong sender %d", p.Rank(), msgs[0].From)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 {
		t.Errorf("Supersteps = %d, want 1", stats.Supersteps)
	}
	if stats.TotalMessages != procs {
		t.Errorf("TotalMessages = %d, want %d", stats.TotalMessages, procs)
	}
	if stats.TotalBytes != procs*8 {
		t.Errorf("TotalBytes = %d, want %d", stats.TotalBytes, procs*8)
	}
	if len(stats.HRelations) != 1 || stats.HRelations[0] != 8 {
		t.Errorf("HRelations = %v, want [8]", stats.HRelations)
	}
}

func TestMessagesNotVisibleBeforeSync(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		p.Send(1-p.Rank(), 1, []byte{1, 2, 3})
		if len(p.inbox) != 0 {
			return errors.New("message visible before superstep boundary")
		}
		p.Sync()
		if got := len(p.RecvAll(1)); got != 1 {
			return fmt.Errorf("got %d messages after sync, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidDestinationPanicsAndAborts(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(5, 0, []byte{1})
		}
		p.Sync()
		return nil
	})
	if err == nil {
		t.Fatal("expected error from invalid destination")
	}
}

func TestNegativeUserTagPanics(t *testing.T) {
	_, err := Run(1, func(p *Proc) error {
		p.Send(0, -1, nil)
		return nil
	})
	if err == nil {
		t.Fatal("expected error from negative user tag")
	}
}

func TestErrorPropagationAborts(t *testing.T) {
	sentinel := errors.New("rank failure")
	_, err := Run(4, func(p *Proc) error {
		if p.Rank() == 2 {
			return sentinel
		}
		// Other ranks wait at a barrier that rank 2 never reaches; the abort
		// must unblock them.
		p.Sync()
		p.Sync()
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the sentinel", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	_, err := Run(3, func(p *Proc) error {
		if p.Rank() == 0 {
			panic("boom")
		}
		p.Sync()
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panic")
	}
}

func TestEarlyFinishDoesNotDeadlock(t *testing.T) {
	// Rank 0 finishes immediately; the other ranks keep synchronising.
	stats, err := Run(3, func(p *Proc) error {
		if p.Rank() == 0 {
			return nil
		}
		for i := 0; i < 5; i++ {
			p.Sync()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 5 {
		t.Errorf("Supersteps = %d, want 5", stats.Supersteps)
	}
}

func TestFlopsAndMemoryAccounting(t *testing.T) {
	stats, err := Run(4, func(p *Proc) error {
		p.AddFlops(int64(100 * (p.Rank() + 1)))
		p.AddFlops(-5) // ignored
		p.NoteMemory(int64(50 * (p.Rank() + 1)))
		p.NoteMemory(10) // lower than peak, ignored
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxFlops() != 400 {
		t.Errorf("MaxFlops = %d, want 400", stats.MaxFlops())
	}
	if stats.FlopsPerRank[0] != 100 {
		t.Errorf("FlopsPerRank[0] = %d, want 100", stats.FlopsPerRank[0])
	}
	if m := slices.Max(stats.MemWordsPerRank); m != 200 {
		t.Errorf("max MemWordsPerRank = %d, want 200", m)
	}
}

func TestHRelationIsMaxPerRank(t *testing.T) {
	// Rank 0 sends 8 bytes to each of the 3 other ranks: h = 24 (sender
	// bound), receivers only see 8 each.
	stats, err := Run(4, func(p *Proc) error {
		if p.Rank() == 0 {
			for r := 1; r < 4; r++ {
				p.Send(r, 3, []int64{42})
			}
		}
		p.Sync()
		p.RecvAll(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.HRelations) != 1 || stats.HRelations[0] != 24 {
		t.Errorf("HRelations = %v, want [24]", stats.HRelations)
	}
	if stats.BytesSentPerRank[0] != 24 || stats.BytesRecvPerRank[1] != 8 {
		t.Errorf("per-rank accounting wrong: %v / %v", stats.BytesSentPerRank, stats.BytesRecvPerRank)
	}
	if m := slices.Max(stats.BytesSentPerRank); m != 24 {
		t.Errorf("max BytesSentPerRank = %d, want 24", m)
	}
	if stats.SumHRelations() != 24 {
		t.Errorf("SumHRelations = %d, want 24", stats.SumHRelations())
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{[]byte{1, 2, 3}, 3},
		{[]uint64{1, 2}, 16},
		{[]int64{1, 2, 3}, 24},
		{[]int{1}, 8},
		{[]float64{1, 2, 3, 4}, 32},
		{[]int32{1, 2}, 8},
		{[]uint32{1}, 4},
		{[]bool{true, false}, 2},
		{"hello", 5},
		{true, 1},
		{int8(1), 1},
		{uint8(1), 1},
		{int32(1), 4},
		{float32(1), 4},
		{int(7), 8},
		{3.14, 8},
		{sizedPayload{n: 123}, 123},
	}
	for _, c := range cases {
		if got := PayloadBytes(c.v); got != c.want {
			t.Errorf("PayloadBytes(%T) = %d, want %d", c.v, got, c.want)
		}
	}
}

type sizedPayload struct{ n int }

func (s sizedPayload) ByteSize() int { return s.n }

func TestManyProcsStress(t *testing.T) {
	const procs = 64
	stats, err := Run(procs, func(p *Proc) error {
		sum := AllReduce(p, int64(p.Rank()), func(a, b int64) int64 { return a + b })
		want := int64(procs * (procs - 1) / 2)
		if sum != want {
			return fmt.Errorf("rank %d: allreduce sum %d, want %d", p.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Procs != procs {
		t.Errorf("Procs = %d, want %d", stats.Procs, procs)
	}
}
