package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"genomeatscale/internal/bsp"
)

// sealed builds one process's filter over a batch of length rows that
// starts at value lo, from the given values.
func sealed(length, lo uint64, vals []uint64) *RowRank {
	return fill(&RowRank{}, length, lo, vals)
}

// fill resets f for a batch of length rows that starts at value lo, marks
// vals into it and seals it.
func fill(f *RowRank, length, lo uint64, vals []uint64) *RowRank {
	f.Reset(length, len(vals))
	f.Mark(vals, lo)
	f.Seal()
	return f
}

// replicate fills this rank's part of a batch of length rows from vals and
// returns the replicated filter.
func replicate(p *bsp.Proc, length uint64, vals []uint64) (*RowRank, error) {
	fv := NewFilterVector(newContext(p, 1))
	fill(fv.Part(), length, 0, vals)
	return fv.Replicate()
}

// checkShared asserts that a filter sealed from vals holds exactly the rows
// marked at least twice, each at its index in the sorted list of them, and
// that a row marked once or never — each of probes, and every row of vals —
// reports absent with the count of shared rows below it, the lower bound
// packColumnInto carries to the next value.
func checkShared(f *RowRank, vals []uint64, lo uint64, probes []uint64) error {
	marks := map[uint64]int{}
	for _, v := range vals {
		marks[v-lo]++
	}
	var want []int64
	for r, k := range marks {
		if k >= 2 {
			want = append(want, int64(r))
		}
	}
	slices.Sort(want)
	if err := checkRanks(f, want); err != nil {
		return err
	}
	for _, r := range append(probes, slices.Collect(maps.Keys(marks))...) {
		if marks[r] >= 2 || r >= f.length {
			continue
		}
		below, _ := slices.BinarySearch(want, int64(r))
		if k, ok := f.Rank(r, 0); ok || k != below {
			return fmt.Errorf("row %d marked %d times ranks (%d,%v), want (%d,false)", r, marks[r], k, ok, below)
		}
	}
	return nil
}

// compactRows is the sort-and-dedup reference: the rows v − lo of vals, in
// the order a row's rank indexes.
func compactRows(vals []uint64, lo uint64) []int64 {
	rows := make([]int64, len(vals))
	for i, v := range vals {
		rows[i] = int64(v - lo)
	}
	return Compact(rows)
}

// checkRanks asserts that every row of want ranks at its index — from 0 and
// galloping from the previous rank — and that rows between them are absent.
func checkRanks(f *RowRank, want []int64) error {
	if f.Count() != len(want) {
		return fmt.Errorf("count %d, want %d", f.Count(), len(want))
	}
	for i, r := range want {
		if k, ok := f.Rank(uint64(r), 0); !ok || k != i {
			return fmt.Errorf("row %d ranks (%d,%v) from 0, want (%d,true)", r, k, ok, i)
		}
		if k, ok := f.Rank(uint64(r), max(i-1, 0)); !ok || k != i {
			return fmt.Errorf("row %d ranks (%d,%v) from %d, want (%d,true)", r, k, ok, max(i-1, 0), i)
		}
		if gap := r + 1; i+1 < len(want) && gap < want[i+1] {
			if _, ok := f.Rank(uint64(gap), i); ok {
				return fmt.Errorf("row %d absent from the batch but found", gap)
			}
		}
	}
	if _, ok := f.Rank(f.length, 0); ok {
		return fmt.Errorf("row %d past the batch found", f.length)
	}
	return nil
}

type rankCase struct {
	name   string
	length uint64
	vals   []uint64 // batch-relative rows, duplicates allowed
}

// rankCases are the hand-picked edges plus seeded random batches whose
// value counts straddle the bitset/list threshold ⌈length/64⌉.
func rankCases() []rankCase {
	cases := []rankCase{
		{"empty-zero-length", 0, nil},
		{"empty", 100, nil},
		{"single-row-first", 1, []uint64{0}},
		{"single-row-last", 1000, []uint64{999}},
		{"bits-0-63-64", 130, []uint64{64, 0, 63, 63}},
		{"bit-64-only", 65, []uint64{64, 64}},
		{"partial-last-word", 100, []uint64{99, 64, 0, 98}},
		{"list-side", 64 * 50, seqRows(49, 64)},
		{"bitset-side", 64 * 50, seqRows(50, 64)},
		{"list-side-twice", 64 * 50, append(seqRows(24, 64), seqRows(24, 64)...)},
		{"bitset-side-twice", 64 * 50, append(seqRows(25, 64), seqRows(25, 64)...)},
		{"universe-2^62", 1 << 62, []uint64{1<<62 - 1, 0, 1 << 61, 1 << 61}},
	}
	rng := rand.New(rand.NewSource(71))
	for k := 0; k < 40; k++ {
		length := uint64(1 + rng.Intn(5000))
		nw := int(bitsetWords(length))
		vals := make([]uint64, rng.Intn(2*nw+8))
		for i := range vals {
			vals[i] = uint64(rng.Int63n(int64(length)))
		}
		cases = append(cases, rankCase{fmt.Sprintf("random-%d", k), length, vals})
	}
	return cases
}

// seqRows returns n rows spaced stride apart.
func seqRows(n int, stride uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) * stride
	}
	return out
}

// TestRowRankMatchesCompact: a single process's filter keeps exactly the
// rows marked at least twice, each ranked at its index in the sorted list
// of them (checkShared), in both forms and at any batch offset.
func TestRowRankMatchesCompact(t *testing.T) {
	forms := map[bool]int{}
	for _, c := range rankCases() {
		const lo = 1 << 40
		vals := make([]uint64, len(c.vals))
		for i, r := range c.vals {
			vals[i] = lo + r
		}
		f := sealed(c.length, lo, vals)
		forms[f.bitset]++
		if f.bitset != (bitsetWords(c.length) <= uint64(len(vals))) {
			t.Errorf("%s: bitset form %v for %d values over %d rows", c.name, f.bitset, len(vals), c.length)
		}
		if err := checkShared(f, vals, lo, nil); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("cases cover one form only: %v", forms)
	}
}

// TestFilterVectorMatchesCompact: the replicated filter of 1-, 4- and
// 9-rank clusters keeps exactly the rows marked at least twice over all
// ranks — twice on one rank or once on each of two (checkShared) — with
// each rank's values drawn so that bitset and list senders mix (and, in
// hypersparse batches, every sender is a list).
func TestFilterVectorMatchesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	senders := map[bool]int{}
	for _, procs := range []int{1, 4, 9} {
		for _, c := range rankCases() {
			// Rank 0 takes two thirds of the values and the rest spread
			// evenly: skewed shares make some ranks send bitsets and
			// others lists.
			perRank := make([][]uint64, procs)
			for _, v := range c.vals {
				r := 0
				if rng.Intn(3) == 0 {
					r = rng.Intn(procs)
				}
				perRank[r] = append(perRank[r], v)
			}
			// A rank sends its rows as a bitset when it holds at least
			// one distinct row per bitset word.
			sentBits := make([]bool, procs)
			for r, vals := range perRank {
				sentBits[r] = bitsetWords(c.length) <= uint64(len(vals)) && len(compactRows(vals, 0)) >= int(bitsetWords(c.length))
			}
			_, errs := bsp.RunCluster(context.Background(), bsp.MemCluster(procs), func(p *bsp.Proc) error {
				got, err := replicate(p, c.length, perRank[p.Rank()])
				if err != nil {
					return err
				}
				return checkShared(got, c.vals, 0, nil)
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("p=%d %s: rank %d: %v", procs, c.name, r, err)
				}
			}
			mixed := false
			for _, b := range sentBits {
				mixed = mixed || b != sentBits[0]
			}
			senders[mixed]++
		}
	}
	if senders[true] == 0 {
		t.Fatal("no batch mixed bitset and list senders")
	}
}

// TestFilterCommunication pins the filter's cost on a seeded 4-rank
// batch: one superstep, and each rank sends at most (p−1)·(min(8·seen_r,
// 8·W) + min(8·multi_r, 8·W) + header) bytes, where seen_r is its distinct
// row count, multi_r the rows two of its values share and W = ⌈len/64⌉.
func TestFilterCommunication(t *testing.T) {
	const procs, length = 4, 64 * 256
	rng := rand.New(rand.NewSource(73))
	perRank := make([][]uint64, procs)
	for r, n := range []int{6000, 12, 400, 0} { // dense, sparse, medium, empty
		for k := 0; k < n; k++ {
			perRank[r] = append(perRank[r], uint64(rng.Intn(length)))
		}
	}
	seen, multi := make([]int, procs), make([]int, procs)
	stats, errs := bsp.RunCluster(context.Background(), bsp.MemCluster(procs), func(p *bsp.Proc) error {
		vals := perRank[p.Rank()]
		seen[p.Rank()] = len(compactRows(vals, 0))
		multi[p.Rank()] = sealed(length, 0, vals).Count()
		_, err := replicate(p, length, vals)
		return err
	})
	const header = 24
	w := 8 * int(bitsetWords(length))
	for r := 0; r < procs; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if s := stats[r].Supersteps; s != 1 {
			t.Errorf("rank %d: filter took %d supersteps, want 1", r, s)
		}
		bound := int64(procs-1) * int64(min(8*seen[r], w)+min(8*multi[r], w)+header)
		if sent := stats[r].BytesSentPerRank[r]; sent > bound {
			t.Errorf("rank %d (%d distinct rows, %d shared): sent %d filter bytes, bound %d", r, seen[r], multi[r], sent, bound)
		}
	}
}

// TestFilterVectorRejectsBadParts: a part that contradicts the batch fails
// the merge with an error instead of corrupting the filter or panicking.
func TestFilterVectorRejectsBadParts(t *testing.T) {
	const rows = 64 * 32 // 32 bitset words; 1000 values pick the bitset form
	list := func(rows ...uint64) rowSet { return rowSet{Words: rows} }
	bitset := func(words ...uint64) rowSet { return rowSet{Bitset: true, Words: words} }
	for _, c := range []struct {
		name   string
		length uint64
		bad    filterPart
	}{
		{"unsorted-list", rows, filterPart{Values: 1000, Seen: list(7, 3)}},
		{"duplicate-rows", rows, filterPart{Values: 1000, Seen: list(3, 3)}},
		{"row-past-batch", rows, filterPart{Values: 1000, Seen: list(rows)}},
		{"short-bitset", rows, filterPart{Values: 1000, Seen: bitset(1)}},
		{"unsorted-multi-list", rows, filterPart{Values: 1000, Seen: list(3, 7), Multi: list(7, 3)}},
		{"short-multi-bitset", rows, filterPart{Values: 1000, Seen: bitset(make([]uint64, 32)...), Multi: bitset(make([]uint64, 33)...)}},
		{"unsorted-hypersparse-list", 1 << 40, filterPart{Values: 2, Seen: list(9, 1)}},
		{"unsorted-hypersparse-multi", 1 << 40, filterPart{Values: 2, Seen: list(1, 9), Multi: list(9, 1)}},
		{"bitset-in-hypersparse-batch", 1 << 40, filterPart{Values: 2, Seen: bitset(1)}},
	} {
		var f FilterVector
		if err := f.merge(c.length, []filterPart{{}, c.bad}); err == nil {
			t.Errorf("%s: part %+v merged without error", c.name, c.bad)
		}
	}
}

// FuzzFilterRank: arbitrary rows in a small batch and in a 2⁶² universe
// keep only those marked at least twice, each ranked at its index in the
// sorted list of them (checkShared), and nothing panics.
func FuzzFilterRank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{100, 0, 99, 0, 64, 0, 0, 0, 63, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 255, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		length := uint64(binary.LittleEndian.Uint16(data))
		var vals []uint64
		for i := 2; i+1 < len(data) && length > 0; i += 2 {
			vals = append(vals, uint64(binary.LittleEndian.Uint16(data[i:]))%length)
		}
		every := make([]uint64, length) // every row of the small batch
		for r := range every {
			every[r] = uint64(r)
		}
		if err := checkShared(sealed(length, 0, vals), vals, 0, every); err != nil {
			t.Fatalf("%d rows: %v", length, err)
		}
		const lo = 1 << 61
		shifted := make([]uint64, len(vals))
		gaps := make([]uint64, len(vals)) // rows never marked
		for i, v := range vals {
			shifted[i] = lo + v*(1<<40)
			gaps[i] = v*(1<<40) + 1
		}
		if err := checkShared(sealed(1<<62, lo, shifted), shifted, lo, gaps); err != nil {
			t.Fatalf("2^62 universe: %v", err)
		}
	})
}
