package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"genomeatscale/internal/bsp"
)

// RowRank is the filter f(l) of Eq. 5 over the rows [0, length) of one batch
// together with its Eq. 6 compaction: Rank(r) is the number of nonzero rows
// below r, which is row r's index in the packed batch. It takes one of two
// forms, picked by Reset from the batch's observed value count alone:
//
//   - a bitset of ⌈length/64⌉ words plus a per-word prefix popcount, when
//     that word count is at most the value count. A rank is then one load,
//     one mask and one popcount: prefix[w] + OnesCount64(word[w] & (bit−1)).
//   - otherwise (hypersparse batches, up to the 2⁶² universe) the sorted,
//     de-duplicated row list — the Compact form — ranked by galloping from
//     the caller's previous position.
//
// Either way the filter's words are bounded by the values marked into it.
//
// A shared filter (Reset with shared set) keeps only the rows marked at
// least twice: with each column's values strictly increasing, the rows that
// two columns of the batch share. Those are the only rows an off-diagonal
// B_ij sums over; a row one column alone has reaches only B_jj, which the
// local target takes from the exact cardinality â_j (Eq. 4) instead.
//
// A RowRank is reused batch to batch: Reset keeps its buffers.
type RowRank struct {
	length uint64
	values int // values the filter was Reset for; its share of the form rule
	bitset bool
	shared bool     // keep only rows marked at least twice
	words  []uint64 // bitset form: bit r%64 of words[r/64] is row r
	seen   []uint64 // shared bitset form: rows marked at least once
	prefix []int    // bitset form: set bits in words[:w]
	rows   []uint64 // list form: sorted distinct rows
	count  int
}

// bitsetWords is the word count of a bitset over length rows.
func bitsetWords(length uint64) uint64 { return length/64 + min(length%64, 1) }

// Reset empties the filter for a batch of length rows into which `values`
// row marks (duplicates included) will be written, and picks its form.
// shared makes Seal keep only the rows marked at least twice.
func (f *RowRank) Reset(length uint64, values int, shared bool) {
	f.length, f.values, f.shared, f.count = length, values, shared, 0
	nw := bitsetWords(length)
	f.bitset = values >= 0 && nw <= uint64(values)
	f.rows = f.rows[:0]
	if f.bitset {
		f.words = resize(f.words, int(nw))
		clear(f.words)
		if shared {
			f.seen = resize(f.seen, int(nw))
			clear(f.seen)
		}
	}
}

// Shared reports whether the filter keeps only rows marked at least twice.
func (f *RowRank) Shared() bool { return f.shared }

// Mark writes the rows v − lo of the batch values vals (Eq. 5). Values may
// repeat and arrive in any order across calls; every v − lo must lie in
// [0, length). A shared bitset sets a row's bit in words once seen has it.
func (f *RowRank) Mark(vals []uint64, lo uint64) {
	switch {
	case !f.bitset:
		for _, v := range vals {
			r := v - lo
			if r >= f.length {
				f.outOfRange(r)
			}
			f.rows = append(f.rows, r)
		}
	case f.shared:
		words, seen := f.words, f.seen
		for _, v := range vals {
			r := v - lo
			if r >= f.length {
				f.outOfRange(r)
			}
			w, bit := r/64, uint64(1)<<(r%64)
			words[w] |= seen[w] & bit
			seen[w] |= bit
		}
	default:
		words := f.words
		for _, v := range vals {
			r := v - lo
			if r >= f.length {
				f.outOfRange(r)
			}
			words[r/64] |= 1 << (r % 64)
		}
	}
}

func (f *RowRank) outOfRange(r uint64) {
	//gas:invariant callers mark the values of their own batch range [lo, lo+length), sliced from sorted samples
	panic(fmt.Sprintf("dist: filter row %d out of range [0,%d)", r, f.length))
}

// Seal completes the filter after the last Mark: the prefix popcount of the
// bitset form, or the sort and de-duplication of the list form — which a
// shared filter makes keep only the rows that occur at least twice.
func (f *RowRank) Seal() {
	if !f.bitset {
		slices.Sort(f.rows)
		if f.shared {
			f.rows = keepRepeated(f.rows)
		} else {
			f.rows = slices.Compact(f.rows)
		}
		f.count = len(f.rows)
		return
	}
	f.prefix = resize(f.prefix, len(f.words))
	n := 0
	for w, x := range f.words {
		f.prefix[w] = n
		n += bits.OnesCount64(x)
	}
	f.count = n
}

// keepRepeated compacts sorted rows in place to one copy of each row that
// occurs at least twice.
func keepRepeated(rows []uint64) []uint64 {
	out := rows[:0] // never overtakes i−1: each kept row takes two inputs
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] && (len(out) == 0 || out[len(out)-1] != rows[i]) {
			out = append(out, rows[i])
		}
	}
	return out
}

// Count returns the number of rows in the filter, the batch's packed row
// count: the nonzero rows, or the shared rows of a shared filter.
func (f *RowRank) Count() int { return f.count }

// Rank returns the compacted index of row (Eq. 6) and whether the row is
// in the filter at all. from is a lower bound on the answer — 0, or the rank
// of a smaller row — that the list form gallops from, so ranking a sorted
// column costs O(values in the column) in either form.
func (f *RowRank) Rank(row uint64, from int) (int, bool) {
	switch {
	case row >= f.length:
		return 0, false
	case !f.bitset:
		return f.gallop(row, from)
	}
	w, bit := row/64, uint64(1)<<(row%64)
	x := f.words[w]
	return f.prefix[w] + bits.OnesCount64(x&(bit-1)), x&bit != 0
}

// gallop is Rank in the list form: exponential steps from `from`, then a
// binary search inside the last step.
func (f *RowRank) gallop(row uint64, from int) (int, bool) {
	rows := f.rows
	lo, hi, step := min(from, len(rows)), min(from, len(rows)), 1
	for hi < len(rows) && rows[hi] < row {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi+1, len(rows))
	i, found := slices.BinarySearch(rows[lo:hi], row)
	return lo + i, found
}

// appendBitsetRows appends the rows of the bitset form in ascending order.
func (f *RowRank) appendBitsetRows(out []uint64) []uint64 {
	for w, x := range f.words {
		for ; x != 0; x &= x - 1 {
			out = append(out, uint64(w)*64+uint64(bits.TrailingZeros64(x)))
		}
	}
	return out
}

// FilterVector completes f(l) on the processor grid. Each rank marks the
// rows of its owned samples into its own RowRank; Replicate then exchanges
// them in one superstep and builds the same global RowRank on every rank,
// which is the paper's replicated prefix sum (Eq. 6). A FilterVector is
// reused batch to batch.
type FilterVector struct {
	ctx  *Context
	send []uint64 // a bitset part's rows, when the list is the smaller payload
	all  RowRank
}

// NewFilterVector returns the filter exchange of one rank.
func NewFilterVector(ctx *Context) *FilterVector {
	return &FilterVector{ctx: ctx}
}

// Replicate all-gathers every rank's sealed part and returns the global
// filter, valid until the next call. Each rank sends whichever of its
// bitset words and its sorted distinct rows is smaller, with its value
// count. The summed value counts — identical on every rank — pick the
// global form: bitset parts are ORed and list parts marked into a bitset,
// or, for a hypersparse batch, the sorted lists are merged p ways. The
// gathered rows are never re-sorted. A part that contradicts the batch (a
// row out of range, an unsorted list, a bitset of the wrong size) is a
// peer's protocol violation and fails the batch with an error.
func (f *FilterVector) Replicate(part *RowRank) (*RowRank, error) {
	out := filterPart{Values: part.values}
	switch {
	case part.bitset && part.count >= len(part.words):
		out.Bitset, out.Words = true, part.words
	case part.bitset:
		f.send = part.appendBitsetRows(f.send[:0])
		out.Words = f.send
	default:
		out.Words = part.rows
	}
	// The payloads alias this rank's buffers; peers read them before the
	// next superstep, and the buffers are rewritten only in the next batch.
	return &f.all, f.merge(part.length, bsp.AllGather(f.ctx.P, out))
}

// merge builds the global filter of a batch of length rows from every
// rank's part.
func (f *FilterVector) merge(length uint64, parts []filterPart) error {
	all := &f.all
	values := 0
	for _, p := range parts {
		values += p.Values
	}
	all.Reset(length, values, false)
	for k, p := range parts {
		if err := all.checkPart(p); err != nil {
			return fmt.Errorf("dist: filter part of rank %d: %w", k, err)
		}
	}
	if all.bitset {
		for _, p := range parts {
			if p.Bitset {
				for w, x := range p.Words {
					all.words[w] |= x
				}
				continue
			}
			for _, r := range p.Words {
				all.words[r/64] |= 1 << (r % 64)
			}
		}
		all.Seal()
		return nil
	}
	h := make([]int, len(parts)) // merge cursors, one per sender
	for {
		best := -1
		var next uint64
		for k, p := range parts {
			if h[k] < len(p.Words) && (best < 0 || p.Words[h[k]] < next) {
				best, next = k, p.Words[h[k]]
			}
		}
		if best < 0 {
			break
		}
		if n := len(all.rows); n == 0 || all.rows[n-1] != next {
			all.rows = append(all.rows, next)
		}
		h[best]++
	}
	all.count = len(all.rows)
	return nil
}

// checkPart validates one received part against this (Reset) filter.
func (f *RowRank) checkPart(p filterPart) error {
	if p.Bitset {
		if !f.bitset {
			return fmt.Errorf("bitset part for a hypersparse batch")
		}
		if len(p.Words) != len(f.words) {
			return fmt.Errorf("bitset of %d words for a %d-row batch", len(p.Words), f.length)
		}
		return nil
	}
	for i, r := range p.Words {
		if r >= f.length || (i > 0 && r <= p.Words[i-1]) {
			return fmt.Errorf("row list not sorted, distinct and inside [0,%d) at index %d", f.length, i)
		}
	}
	return nil
}

// filterPart is one rank's share of the replicated filter: the number of
// values it marked, whose sum over ranks picks the global form, and its
// distinct rows, as bitset words (Bitset) or as a sorted list.
type filterPart struct {
	Values int
	Bitset bool
	Words  []uint64
}

// ByteSize implements bsp.ByteSizer: the words plus a two-word header.
func (p filterPart) ByteSize() int { return 16 + 8*len(p.Words) }

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Compact sorts a copy of rows and removes duplicates. It is the list form
// of f(l) written out, and the reference RowRank is tested against: a row's
// rank is its index in Compact of the batch's rows.
func Compact(rows []int64) []int64 {
	if len(rows) == 0 {
		return nil
	}
	out := slices.Clone(rows)
	slices.Sort(out)
	return slices.Compact(out)
}
