package bitmat

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"genomeatscale/internal/sparse"
)

// randomPackedEntries draws a random sorted (col, wordRow) entry stream at
// the given word-level density — the input shape the engine's batch loop
// feeds FromEntriesThresholdArena.
func randomPackedEntries(rng *rand.Rand, wordRows, cols int, density float64) []PackedEntry {
	var out []PackedEntry
	for j := 0; j < cols; j++ {
		for w := 0; w < wordRows; w++ {
			if rng.Float64() < density {
				out = append(out, PackedEntry{WordRow: w, Col: j, Word: rng.Uint64() | 1})
			}
		}
	}
	return out
}

// assertSamePacked pins every observable of an arena-built matrix against
// its arena-free twin.
func assertSamePacked(t *testing.T, want, got *Packed) {
	t.Helper()
	if want.WordRows != got.WordRows || want.Cols != got.Cols || want.B != got.B ||
		want.ActiveRows != got.ActiveRows {
		t.Fatalf("shape mismatch: want %+v, got %+v", want, got)
	}
	if w, g := want.NNZWords(), got.NNZWords(); w != g {
		t.Fatalf("NNZWords: want %d, got %d", w, g)
	}
	if w, g := want.DenseCols(), got.DenseCols(); w != g {
		t.Fatalf("DenseCols: want %d, got %d", w, g)
	}
	if w, g := want.WordOccupancy(), got.WordOccupancy(); w != g {
		t.Fatalf("WordOccupancy: want %g, got %g", w, g)
	}
	wantEnt, gotEnt := want.Entries(), got.Entries()
	if len(wantEnt) != len(gotEnt) {
		t.Fatalf("Entries length: want %d, got %d", len(wantEnt), len(gotEnt))
	}
	for i := range wantEnt {
		if wantEnt[i] != gotEnt[i] {
			t.Fatalf("entry %d: want %+v, got %+v", i, wantEnt[i], gotEnt[i])
		}
	}
	wg, gg := want.Gram(), got.Gram()
	if !sparse.Equal(wg, gg, int64Eq) {
		t.Fatal("Gram differs between arena and arena-free builds")
	}
}

// TestFromEntriesArenaMatchesPlain: matrices built through an arena must be
// observably identical to plain ones across thresholds and repeated
// build→use→Release cycles that recycle the same buffers.
func TestFromEntriesArenaMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	arena := NewArena()
	for _, threshold := range thresholdSweep {
		for cycle := 0; cycle < 6; cycle++ {
			wordRows := 1 + rng.Intn(40)
			cols := 1 + rng.Intn(50)
			entries := randomPackedEntries(rng, wordRows, cols, 0.3)
			want := FromEntriesThreshold(entries, wordRows, cols, 64, wordRows*64, threshold)
			got := FromEntriesThresholdArena(entries, wordRows, cols, 64, wordRows*64, threshold, arena)
			assertSamePacked(t, want, got)
			got.Release()
		}
	}
}

// TestFromEntriesArenaUnsorted covers the unsorted construction path (sort
// a copy, then the linear pass) with arena buffers.
func TestFromEntriesArenaUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	arena := NewArena()
	for cycle := 0; cycle < 4; cycle++ {
		entries := randomPackedEntries(rng, 20, 30, 0.25)
		shuffled := append([]PackedEntry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		want := FromEntriesThreshold(entries, 20, 30, 64, 20*64, DenseAuto)
		got := FromEntriesThresholdArena(shuffled, 20, 30, 64, 20*64, DenseAuto, arena)
		assertSamePacked(t, want, got)
		got.Release()
	}
}

// TestGramAccumulateArenaMatches: the arena-recycled tiled accumulation is
// bit-identical to the arena-free paths for every worker count, including
// across consecutive calls reusing the same per-worker tile slots.
func TestGramAccumulateArenaMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	arena := NewArena()
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		wordRows := 1 + rng.Intn(60)
		cols := 2 + rng.Intn(120)
		entries := randomPackedEntries(rng, wordRows, cols, 0.2)
		p := FromEntriesThreshold(entries, wordRows, cols, 64, wordRows*64, DenseAuto)
		want, seed := seededAccumulator(rng, cols)
		p.GramAccumulate(want)
		for _, workers := range []int{1, 2, 4, 7} {
			got := cloneDense(seed)
			if err := p.GramAccumulateCtxArena(ctx, got, workers, arena); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !sparse.Equal(want, got, int64Eq) {
				t.Fatalf("trial=%d workers=%d: arena Gram differs from serial", trial, workers)
			}
		}
	}
}

// TestArenaSteadyStateAllocations: after a warm-up batch, a
// pack→accumulate→release cycle through the arena must allocate (almost)
// nothing — the property the engine's batch loop relies on. The unsorted
// fallback and accumulator setup are excluded; this is the sorted
// steady-state path.
func TestArenaSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const wordRows, cols = 32, 64
	entries := randomPackedEntries(rng, wordRows, cols, 0.4)
	arena := NewArena()
	acc := sparse.MustDense[int64](cols, cols)
	cycle := func() {
		p := FromEntriesThresholdArena(entries, wordRows, cols, 64, wordRows*64, DenseAuto, arena)
		if err := p.GramAccumulateCtxArena(context.Background(), acc, 1, arena); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the free lists (first cycles may grow buffers)
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 2 {
		t.Fatalf("steady-state arena cycle allocates %.1f objects/op, want ~0", allocs)
	}
}

// TestArenaReleaseIdempotent: Release on an arena-free matrix is a no-op,
// and double Release does not corrupt the arena.
func TestArenaReleaseIdempotent(t *testing.T) {
	entries := []PackedEntry{{WordRow: 0, Col: 0, Word: 3}}
	plain := FromEntriesThreshold(entries, 2, 2, 64, 128, DenseAuto)
	plain.Release()
	if plain.NNZWords() != 1 {
		t.Fatal("Release on arena-free matrix must not drop buffers")
	}
	arena := NewArena()
	p := FromEntriesThresholdArena(entries, 2, 2, 64, 128, DenseAuto, arena)
	p.Release()
	p.Release() // second call must be a no-op (arena pointer cleared)
	q := FromEntriesThresholdArena(entries, 2, 2, 64, 128, DenseAuto, arena)
	if got := q.NNZWords(); got != 1 {
		t.Fatalf("rebuild after double release: NNZWords=%d, want 1", got)
	}
}

// TestWordOccupancy pins the occupancy figure against a direct count.
func TestWordOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	entries := randomPackedEntries(rng, 16, 10, 0.5)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Col != entries[j].Col {
			return entries[i].Col < entries[j].Col
		}
		return entries[i].WordRow < entries[j].WordRow
	})
	p := FromEntriesThreshold(entries, 16, 10, 64, 16*64, DenseAuto)
	want := float64(len(entries)) / float64(16*10)
	if got := p.WordOccupancy(); got != want {
		t.Fatalf("WordOccupancy=%g, want %g", got, want)
	}
	var empty Packed
	if got := empty.WordOccupancy(); got != 0 {
		t.Fatalf("empty WordOccupancy=%g, want 0", got)
	}
}
