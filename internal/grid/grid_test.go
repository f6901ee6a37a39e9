package grid

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestChooseSquareGrids(t *testing.T) {
	cases := []struct {
		p, c                     int
		rows, cols, layers, size int
	}{
		{1, 1, 1, 1, 1, 1},
		{4, 1, 2, 2, 1, 4},
		{16, 1, 4, 4, 1, 16},
		{16, 4, 2, 2, 4, 16},
		{64, 4, 4, 4, 4, 64},
		{12, 1, 3, 4, 1, 12},
		{12, 3, 2, 2, 3, 12},
		{7, 1, 1, 7, 1, 7},
		{32, 2, 4, 4, 2, 32},
		{1024, 16, 8, 8, 16, 1024},
	}
	for _, c := range cases {
		g, err := Choose(c.p, c.c)
		if err != nil {
			t.Fatalf("Choose(%d,%d): %v", c.p, c.c, err)
		}
		if g.Rows != c.rows || g.Cols != c.cols || g.Layers != c.layers {
			t.Errorf("Choose(%d,%d) = %s, want %dx%dx%d", c.p, c.c, g, c.rows, c.cols, c.layers)
		}
		if g.Size() != c.size {
			t.Errorf("Choose(%d,%d).Size() = %d, want %d", c.p, c.c, g.Size(), c.size)
		}
	}
}

func TestChooseClampsReplication(t *testing.T) {
	// c > p clamps to p; c not dividing p is reduced.
	g := MustChoose(8, 100)
	if g.Size() != 8 {
		t.Errorf("Size = %d, want 8", g.Size())
	}
	g = MustChoose(10, 4) // 4 does not divide 10 → falls back to 2
	if g.Layers != 2 || g.Size() != 10 {
		t.Errorf("Choose(10,4) = %s", g)
	}
	g = MustChoose(5, 0)
	if g.Layers != 1 || g.Size() != 5 {
		t.Errorf("Choose(5,0) = %s", g)
	}
}

func TestChooseErrorsOnNonPositive(t *testing.T) {
	for _, p := range []int{0, -3} {
		_, err := Choose(p, 1)
		if err == nil {
			t.Fatalf("Choose(%d,1): expected error", p)
		}
		want := fmt.Sprintf("grid: non-positive processor count %d", p)
		if err.Error() != want {
			t.Errorf("Choose(%d,1) error = %q, want %q", p, err, want)
		}
	}
}

func TestMustChoosePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustChoose(0, 1)
}

func TestChooseUsesAllRanksProperty(t *testing.T) {
	f := func(pRaw, cRaw uint16) bool {
		p := int(pRaw%2048) + 1
		c := int(cRaw%64) + 1
		g, err := Choose(p, c)
		return err == nil && g.Size() == p && g.Rows <= g.Cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	g := Grid{Rows: 3, Cols: 4, Layers: 2}
	seen := map[int]bool{}
	for r := 0; r < g.Size(); r++ {
		row, col, layer := g.Coords(r)
		if back := g.Rank(row, col, layer); back != r {
			t.Errorf("rank %d → (%d,%d,%d) → %d", r, row, col, layer, back)
		}
		seen[r] = true
	}
	if len(seen) != 24 {
		t.Errorf("expected 24 distinct ranks, got %d", len(seen))
	}
}

func TestCoordsPanics(t *testing.T) {
	g := Grid{Rows: 2, Cols: 2, Layers: 1}
	for _, bad := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Coords(%d) should panic", bad)
				}
			}()
			g.Coords(bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Rank out of range should panic")
		}
	}()
	g.Rank(2, 0, 0)
}

func TestPeers(t *testing.T) {
	g := Grid{Rows: 2, Cols: 3, Layers: 2}
	rp := g.RowPeers(1, 1)
	if len(rp) != 3 {
		t.Fatalf("RowPeers len = %d", len(rp))
	}
	for c, r := range rp {
		row, col, layer := g.Coords(r)
		if row != 1 || col != c || layer != 1 {
			t.Errorf("RowPeers[%d] = rank %d with coords (%d,%d,%d)", c, r, row, col, layer)
		}
	}
	cp := g.ColPeers(2, 0)
	if len(cp) != 2 {
		t.Fatalf("ColPeers len = %d", len(cp))
	}
	for r, rank := range cp {
		row, col, layer := g.Coords(rank)
		if row != r || col != 2 || layer != 0 {
			t.Errorf("ColPeers[%d] wrong coords (%d,%d,%d)", r, row, col, layer)
		}
	}
}

func TestBlockRangePartitionsExactly(t *testing.T) {
	f := func(nRaw, partsRaw uint16) bool {
		n := int(nRaw % 10000)
		parts := int(partsRaw%50) + 1
		prevHi := 0
		for idx := 0; idx < parts; idx++ {
			lo, hi := BlockRange(n, parts, idx)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo > n/parts+1 || (n >= parts && hi-lo < n/parts) {
				return false
			}
			prevHi = hi
		}
		return prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBlockRangeKnown(t *testing.T) {
	// 10 items, 3 parts → sizes 4,3,3.
	wants := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for idx, w := range wants {
		lo, hi := BlockRange(10, 3, idx)
		if lo != w[0] || hi != w[1] {
			t.Errorf("BlockRange(10,3,%d) = [%d,%d), want [%d,%d)", idx, lo, hi, w[0], w[1])
		}
	}
}

func TestBlockRangePanics(t *testing.T) {
	cases := []func(){
		func() { BlockRange(10, 0, 0) },
		func() { BlockRange(10, 3, 3) },
		func() { BlockRange(-1, 3, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBlockOwnerConsistentWithBlockRange(t *testing.T) {
	f := func(nRaw, partsRaw uint16) bool {
		n := int(nRaw%500) + 1
		parts := int(partsRaw%40) + 1
		for i := 0; i < n; i++ {
			owner := BlockOwner(n, parts, i)
			lo, hi := BlockRange(n, parts, owner)
			if i < lo || i >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BlockOwner(5, 2, 5)
}

func TestCyclicOwnerAndItems(t *testing.T) {
	items := CyclicItems(10, 4, 1)
	want := []int{1, 5, 9}
	if len(items) != len(want) {
		t.Fatalf("CyclicItems = %v", items)
	}
	for i := range want {
		if items[i] != want[i] {
			t.Errorf("CyclicItems[%d] = %d, want %d", i, items[i], want[i])
		}
	}
	// All items covered exactly once across ranks.
	covered := map[int]int{}
	for r := 0; r < 4; r++ {
		for _, i := range CyclicItems(10, 4, r) {
			covered[i]++
		}
	}
	if len(covered) != 10 {
		t.Errorf("cyclic distribution covered %d items, want 10", len(covered))
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("item %d covered %d times", i, c)
		}
	}
}

func TestCyclicPanics(t *testing.T) {
	cases := []func(){
		func() { CyclicItems(5, 2, 2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGridString(t *testing.T) {
	g := Grid{Rows: 4, Cols: 4, Layers: 2}
	if g.String() != "4x4x2" {
		t.Errorf("String = %q", g.String())
	}
}
