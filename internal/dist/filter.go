package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"genomeatscale/internal/bitutil"
	"genomeatscale/internal/bsp"
)

// RowRank is the batch filter f(l) over the rows [0, length) of one batch
// together with its Eq. 6 compaction: Rank(r) is the number of filter rows
// below r, which is row r's index in the packed batch. The filter keeps the
// rows marked at least twice: with each column's values strictly
// increasing, the rows that two columns of the batch share. Those are the
// only rows an off-diagonal B_ij sums over; a row one column alone has
// reaches only B_jj, which both targets take from the exact cardinality â_j
// (Eq. 4) instead. The local target marks every column into one filter; a
// grid rank marks its own columns into its FilterVector's Part, and
// Replicate finds the rows two ranks share.
//
// It takes one of two forms, picked by Reset from the batch's observed
// value count alone:
//
//   - a bitset of ⌈length/64⌉ words plus a per-word prefix popcount, when
//     that word count is at most the value count. A rank is then one load,
//     one mask and one popcount: prefix[w] + OnesCount64(word[w] & (bit−1)).
//   - otherwise (hypersparse batches, up to the 2⁶² universe) the sorted
//     list of the kept rows, ranked by galloping from the caller's previous
//     position.
//
// Either way the filter's words are bounded by the values marked into it.
// A RowRank is reused batch to batch: Reset keeps its buffers.
type RowRank struct {
	length uint64
	values int // values the filter was Reset for; its share of the form rule
	bitset bool
	words  []uint64 // bitset form: bit r%64 of words[r/64] is row r
	seen   []uint64 // bitset form: rows marked at least once
	prefix []int    // bitset form: set bits in words[:w]
	rows   []uint64 // list form: sorted kept rows
	count  int
	// part marks a FilterVector's Part, whose list-form Seal also keeps the
	// distinct rows marked (distinct): its peers need them to find the rows
	// two ranks share.
	part     bool
	distinct []uint64
}

// bitsetWords is the word count of a bitset over length rows.
func bitsetWords(length uint64) uint64 { return length/64 + min(length%64, 1) }

// Reset empties the filter for a batch of length rows into which `values`
// row marks (duplicates included) will be written, and picks its form.
func (f *RowRank) Reset(length uint64, values int) {
	f.length, f.values, f.count = length, values, 0
	nw := bitsetWords(length)
	f.bitset = values >= 0 && nw <= uint64(values)
	f.rows = f.rows[:0]
	if f.bitset {
		f.words = resize(f.words, int(nw))
		clear(f.words)
		f.seen = resize(f.seen, int(nw))
		clear(f.seen)
	}
}

// Mark writes the rows v − lo of the batch values vals (Eq. 5). Values may
// repeat and arrive in any order across calls; every v − lo must lie in
// [0, length). The bitset form sets a row's bit in words once seen has it.
func (f *RowRank) Mark(vals []uint64, lo uint64) {
	if !f.bitset {
		for _, v := range vals {
			r := v - lo
			if r >= f.length {
				f.outOfRange(r)
			}
			f.rows = append(f.rows, r)
		}
		return
	}
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
}

func (f *RowRank) outOfRange(r uint64) {
	//gas:invariant callers mark the values of their own batch range [lo, lo+length), sliced from sorted samples
	panic(fmt.Sprintf("dist: filter row %d out of range [0,%d)", r, f.length))
}

// Seal completes the filter after the last Mark: the prefix popcount of the
// bitset form, or the list form's sort down to one copy of each row that
// occurs at least twice (a FilterVector's Part keeps its distinct rows
// beside them).
func (f *RowRank) Seal() {
	if !f.bitset {
		slices.Sort(f.rows)
		if f.part {
			f.distinct = slices.Compact(append(f.distinct[:0], f.rows...))
		}
		f.rows = keepRepeated(f.rows)
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
// count: the rows two of its columns share.
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

// appendSetRows appends the rows of bitset words in ascending order.
func appendSetRows(out, words []uint64) []uint64 {
	for w, x := range words {
		for ; x != 0; x &= x - 1 {
			out = append(out, uint64(w)*64+uint64(bits.TrailingZeros64(x)))
		}
	}
	return out
}

// markWords is Mark for a whole bitset of rows, each row marked once.
func (f *RowRank) markWords(x []uint64) {
	words, seen := f.words, f.seen
	for w, v := range x {
		words[w] |= seen[w] & v
		seen[w] |= v
	}
}

// FilterVector completes f(l) on the processor grid. Each rank marks the
// rows of its owned samples into its Part; Replicate then exchanges the
// parts in one superstep and builds the same global RowRank on every rank,
// which is the paper's replicated prefix sum (Eq. 6): the rows that two
// samples share, whether both sit on one rank or on two. A FilterVector is
// reused batch to batch.
type FilterVector struct {
	ctx  *Context
	part RowRank
	send [2][]uint64 // a bitset set's rows, when the list is the smaller payload
	all  RowRank
}

// NewFilterVector returns the filter exchange of one rank.
func NewFilterVector(ctx *Context) *FilterVector {
	return &FilterVector{ctx: ctx, part: RowRank{part: true}}
}

// Part returns this rank's share of the filter, which the caller Resets,
// Marks and Seals before each Replicate.
func (f *FilterVector) Part() *RowRank { return &f.part }

// Replicate all-gathers every rank's sealed Part and returns the global
// filter, valid until the next call. Each rank sends its value count and
// two row sets: seen, the rows it holds at all, and multi, the rows two of
// its own columns share. Each set goes as whichever of its bitset words and
// its sorted row list is smaller. The summed value counts — identical on
// every rank — pick the global form. In the bitset form every set is marked
// into the global filter (a bitset set word by word), so it keeps the OR of
// the multis plus every row two seens hold, by the two-bit step of Mark;
// for a hypersparse batch the sorted lists are merged 2p ways, keeping each
// row that two lists hold. The gathered rows are never re-sorted. A part
// that contradicts the batch (a row out of range, an unsorted list, a
// bitset of the wrong size) is a peer's protocol violation and fails the
// batch with an error.
func (f *FilterVector) Replicate() (*RowRank, error) {
	part := &f.part
	out := filterPart{Values: part.values}
	if part.bitset {
		out.Seen = f.wireSet(0, part.seen, bitutil.PopcountSlice(part.seen))
		out.Multi = f.wireSet(1, part.words, part.count)
	} else {
		out.Seen, out.Multi = rowSet{Words: part.distinct}, rowSet{Words: part.rows}
	}
	// The payloads alias this rank's buffers; peers read them before the
	// next superstep, and the buffers are rewritten only in the next batch.
	return &f.all, f.merge(part.length, bsp.AllGather(f.ctx.P, out))
}

// wireSet returns the set of `count` rows in bitset words as the smaller of
// the words and the sorted row list, which it builds in send buffer i.
func (f *FilterVector) wireSet(i int, words []uint64, count int) rowSet {
	if count >= len(words) {
		return rowSet{Bitset: true, Words: words}
	}
	f.send[i] = appendSetRows(f.send[i][:0], words)
	return rowSet{Words: f.send[i]}
}

// merge builds the global filter of a batch of length rows from every
// rank's part.
func (f *FilterVector) merge(length uint64, parts []filterPart) error {
	all := &f.all
	values := 0
	for _, p := range parts {
		values += p.Values
	}
	all.Reset(length, values)
	for k, p := range parts {
		for _, set := range []rowSet{p.Seen, p.Multi} {
			if err := all.checkSet(set); err != nil {
				return fmt.Errorf("dist: filter part of rank %d: %w", k, err)
			}
		}
	}
	if all.bitset {
		for _, p := range parts {
			for _, set := range []rowSet{p.Seen, p.Multi} {
				if set.Bitset {
					all.markWords(set.Words)
				} else {
					all.Mark(set.Words, 0)
				}
			}
		}
		all.Seal()
		return nil
	}
	lists := make([][]uint64, 0, 2*len(parts))
	for _, p := range parts {
		lists = append(lists, p.Seen.Words, p.Multi.Words)
	}
	h := make([]int, len(lists)) // merge cursors, one per list
	for {
		var next uint64
		holders := 0
		for k, l := range lists {
			if h[k] == len(l) {
				continue
			}
			switch r := l[h[k]]; {
			case holders == 0 || r < next:
				next, holders = r, 1
			case r == next:
				holders++
			}
		}
		if holders == 0 {
			break
		}
		if holders >= 2 {
			all.rows = append(all.rows, next)
		}
		for k, l := range lists {
			if h[k] < len(l) && l[h[k]] == next {
				h[k]++
			}
		}
	}
	all.count = len(all.rows)
	return nil
}

// checkSet validates one received row set against this (Reset) filter.
func (f *RowRank) checkSet(s rowSet) error {
	if s.Bitset {
		if !f.bitset {
			return fmt.Errorf("bitset part for a hypersparse batch")
		}
		if len(s.Words) != len(f.words) {
			return fmt.Errorf("bitset of %d words for a %d-row batch", len(s.Words), f.length)
		}
		return nil
	}
	for i, r := range s.Words {
		if r >= f.length || (i > 0 && r <= s.Words[i-1]) {
			return fmt.Errorf("row list not sorted, distinct and inside [0,%d) at index %d", f.length, i)
		}
	}
	return nil
}

// filterPart is one rank's share of the replicated filter: the number of
// values it marked, whose sum over ranks picks the global form, the rows it
// holds (Seen) and the rows two of its own columns share (Multi).
type filterPart struct {
	Values      int
	Seen, Multi rowSet
}

// rowSet is a set of distinct rows, as bitset words (Bitset) or as a sorted
// list.
type rowSet struct {
	Bitset bool
	Words  []uint64
}

// ByteSize implements bsp.ByteSizer: both sets' words plus a three-word
// header (values, forms, the seen set's length).
func (p filterPart) ByteSize() int { return 24 + 8*(len(p.Seen.Words)+len(p.Multi.Words)) }

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Compact sorts a copy of rows and removes duplicates: the paper's Eq. 5
// filter of every nonzero row, with each row's Eq. 6 rank its index in the
// result. Neither target packs that filter; it is the sort-and-dedup
// reference that this package's tests and the benchmark's replay use.
func Compact(rows []int64) []int64 {
	if len(rows) == 0 {
		return nil
	}
	out := slices.Clone(rows)
	slices.Sort(out)
	return slices.Compact(out)
}
