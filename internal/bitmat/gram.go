package bitmat

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"genomeatscale/internal/bitutil"
	"genomeatscale/internal/par"
	"genomeatscale/internal/sparse"
)

// colView is the layout-aware handle the Gram kernels use to read one
// column without per-cell layout checks on the slices themselves: dense
// columns expose their full WordRows-length slab slice, sparse columns the
// (wordRow, word) stream views.
type colView struct {
	dense []uint64 // non-nil => dense column
	wr    []int
	ws    []uint64
}

func (v colView) empty() bool { return v.dense == nil && len(v.ws) == 0 }

// view returns the kernel view of column j.
func (p *Packed) view(j int) colView {
	if p.denseOff != nil {
		if off := p.denseOff[j]; off >= 0 {
			return colView{dense: p.slab[off : off+p.WordRows]}
		}
	}
	lo, hi := p.colPtr[j], p.colPtr[j+1]
	return colView{wr: p.wordRow[lo:hi], ws: p.words[lo:hi]}
}

// pairPopcount dispatches one Gram cell to the kernel matching the two
// columns' layouts: dense×dense runs the dispatched slab AND+popcount
// kernel (portable 8-way or AVX-512 VPOPCNTQ, see bitutil.Kernel),
// dense×sparse gathers by the sparse side's word-row indices, and
// sparse×sparse keeps the historical index merge. All three compute the
// same Σ popcount(vi ∧ vj), so the result is independent of the layout.
// The tile walk (gramWalk) sends a cell here only when its 4×4 block
// cannot go to the block kernel: a block with a sparse column, a tile-edge
// remainder, or a block with fewer than minBlockCells cells to write.
func pairPopcount(a, b colView) int {
	switch {
	case a.dense != nil && b.dense != nil:
		return bitutil.PopcountAndSlice(a.dense, b.dense)
	case a.dense != nil:
		return gatherPopcountAnd(a.dense, b.wr, b.ws)
	case b.dense != nil:
		return gatherPopcountAnd(b.dense, a.wr, a.ws)
	default:
		return mergePopcount(a.wr, a.ws, b.wr, b.ws)
	}
}

// gatherPopcountAnd accumulates popcount(dense[wr[k]] & ws[k]): the sparse
// side drives, each of its stored words gathers its partner by direct
// indexing into the dense slab — no merge.
func gatherPopcountAnd(dense []uint64, wr []int, ws []uint64) int {
	acc := 0
	for k, w := range wr {
		acc += bitutil.PopcountAnd(dense[w], ws[k])
	}
	return acc
}

// mergePopcount merges two sorted (wordRow, word) streams and accumulates
// popcount(wi & wj) on matching word rows.
func mergePopcount(wi []int, vi []uint64, wj []int, vj []uint64) int {
	acc, a, b := 0, 0, 0
	for a < len(wi) && b < len(wj) {
		switch {
		case wi[a] < wj[b]:
			a++
		case wi[a] > wj[b]:
			b++
		default:
			acc += bitutil.PopcountAnd(vi[a], vj[b])
			a++
			b++
		}
	}
	return acc
}

// Gram computes B = ÂᵀÂ over the popcount-AND semiring (Eq. 7):
// B[i][j] = Σ_k popcount(Â[k][i] ∧ Â[k][j]). With indicator data this equals
// the intersection cardinality |X_i ∩ X_j| restricted to the rows covered by
// this batch. The result is a dense Cols×Cols matrix.
func (p *Packed) Gram() *sparse.Dense[int64] {
	out := sparse.MustDense[int64](p.Cols, p.Cols)
	p.GramAccumulate(out)
	return out
}

// GramAccumulate adds this batch's Gram contribution into an existing dense
// accumulator, implementing the per-batch accumulation of Eq. 4, on the
// serial path.
func (p *Packed) GramAccumulate(into *sparse.Dense[int64]) {
	p.GramAccumulateWorkers(into, 1)
}

// GramAccumulateWorkers is GramAccumulate evaluated on a shared-memory
// worker pool. workers follows the par convention: 0 resolves to
// runtime.GOMAXPROCS(0), n ≥ 1 runs n goroutines (1 runs the calling
// goroutine alone). The upper-triangular column-pair space is tiled into
// square output blocks; each tile accumulates into a private slab and then
// flushes it into `into` together with its mirror. Because only tiles on
// or above the diagonal exist and each mirrors its own block, the flushed
// regions are pairwise disjoint, so the writes are race-free and the
// result is bit-identical for every workers value (int64 addition is
// associative and each cell is computed once). Every cell dispatches
// through pairPopcount, so the kernel choice follows the two columns'
// storage layouts.
func (p *Packed) GramAccumulateWorkers(into *sparse.Dense[int64], workers int) {
	_ = p.GramAccumulateCtxArena(nil, into, workers, nil)
}

// GramAccumulateCtxArena is GramAccumulateWorkers with cooperative
// cancellation, drawing its transient buffers — the tile list and the
// per-worker tile accumulators — from an Arena, so a batch loop that calls
// it repeatedly allocates nothing in steady state. The tile loop polls ctx
// between tiles and returns ctx.Err() once cancelled, leaving `into`
// partially accumulated (callers abandon the run). A nil arena allocates
// the buffers per call; a nil context never cancels. The arena must not be
// shared with a concurrent Gram call (see Arena).
func (p *Packed) GramAccumulateCtxArena(ctx context.Context, into *sparse.Dense[int64], workers int, arena *Arena) error {
	if into.Rows != p.Cols || into.Cols != p.Cols {
		//gas:invariant the accumulator is allocated from this matrix's own Cols by every caller; a mismatch is an engine bug
		panic(fmt.Sprintf("bitmat: Gram accumulator shape %dx%d, want %dx%d", into.Rows, into.Cols, p.Cols, p.Cols))
	}
	return p.gramTiles(ctx, workers, arena, nil, (*denseSink)(into))
}

// tileSink is an accumulator layout the Gram tile loop flushes into. A
// tile's slab holds its cells on and above the diagonal, row-major and
// t.j1 − t.j0 wide; addTile adds them into the accumulator. Distinct tiles
// touch disjoint cells, so addTile may run concurrently for distinct
// tiles.
type tileSink interface {
	addTile(t tileSpec, slab []int64)
}

// denseSink is a dense n×n accumulator as a tileSink: each tile is added
// together with its mirror.
type denseSink sparse.Dense[int64]

func (d *denseSink) addTile(t tileSpec, slab []int64) {
	stride, tw := d.Cols, t.j1-t.j0
	for i := t.i0; i < t.i1; i++ {
		row := slab[(i-t.i0)*tw:]
		for j := t.j0; j < t.j1; j++ {
			c := row[j-t.j0]
			if c == 0 {
				continue
			}
			d.Data[i*stride+j] += c
			if i != j {
				d.Data[j*stride+i] += c
			}
		}
	}
}

// gramTiles is the one Gram tile loop behind both accumulator layouts. It
// tiles the upper-triangular column-pair space into square blocks, skips
// the tiles in which no pair survives mask (nil keeps every pair), and
// hands the tiles to the worker pool. Each tile is computed into the
// worker's slab (gramTile) and then added into `into`. ctx is polled
// between tiles. With workers ≤ 1 the tiles run in order on the calling
// goroutine without a pool, so a warm single-worker call allocates
// nothing.
func (p *Packed) gramTiles(ctx context.Context, workers int, arena *Arena, mask *PairMask, into tileSink) error {
	if arena == nil {
		// A call-local arena: the worker slabs are still reused tile to tile.
		arena = NewArena()
	}
	workers = par.Resolve(workers)
	edge := tileEdge(workers, func(e int) int {
		nt := (p.Cols + e - 1) / e
		return nt * (nt + 1) / 2
	})
	tiles := arena.getSpecs()
	for i0 := 0; i0 < p.Cols; i0 += edge {
		i1 := min(i0+edge, p.Cols)
		for j0 := i0; j0 < p.Cols; j0 += edge {
			t := tileSpec{i0, i1, j0, min(j0+edge, p.Cols)}
			// Tile-level prescreen skip: a tile none of whose pairs
			// survived the sketch gate is never scheduled.
			if mask != nil && !mask.anyInTile(t.i0, t.i1, t.j0, t.j1) {
				continue
			}
			tiles = append(tiles, t)
		}
	}
	arena.ensureWorkers(min(workers, len(tiles)))
	var err error
	if workers <= 1 {
		for _, t := range tiles {
			if ctx != nil {
				if err = ctx.Err(); err != nil {
					break
				}
			}
			into.addTile(t, p.gramTile(t, arena.workerTile(0, t.cells()), mask))
		}
	} else {
		err = par.ForEachWorkerCtx(ctx, workers, len(tiles), func(w, k int) {
			t := tiles[k]
			into.addTile(t, p.gramTile(t, arena.workerTile(w, t.cells()), mask))
		})
	}
	arena.putSpecs(tiles)
	return err
}

// gramTile computes the tile's cells on and above the diagonal into the
// zeroed slab and returns it. Pairs pruned by mask and pairs with an empty
// column stay 0, and so do the cells below the diagonal.
func (p *Packed) gramTile(t tileSpec, slab []int64, mask *PairMask) []int64 {
	gramWalk(p, p, t, slab, t.j1-t.j0, true, mask)
	return slab
}

// blockEdge is the side of the column blocks gramWalk hands to the
// register-blocked kernel, bitutil.PopcountAndBlock.
const blockEdge = 4

// minBlockCells is the fewest cells a dense 4×4 block must have to write
// for the block kernel to run. On 512-word columns in L1 the AVX-512
// block kernel's one pass takes as long as about ten single-pair passes
// (0.59 µs against 0.90 µs for all 16 pairs one by one), so a block with
// fewer cells to write, the rest masked, computes them one by one. A
// diagonal block has exactly ten.
const minBlockCells = 10

// gramWalk adds the Gram cells of tile t of the a×b product into out,
// where cell (i, j) lives at out[(i−t.i0)·stride + j−t.j0]. With tri set
// (a and b are the same matrix) only the cells on and above the diagonal
// are written; with mask non-nil only the pairs it keeps. The tile is
// walked in 4×4 blocks of columns. A block of eight dense columns with at
// least minBlockCells cells to write goes to the block kernel, which
// streams the eight columns' word rows once for all 16 pairs; a diagonal
// block computes its cells below the diagonal too but never writes them.
// Every other cell — in a block with a sparse column, in a tile-edge
// remainder block narrower than four, or in a mostly masked block — goes
// to pairPopcount. A block none of whose cells is to be written is
// skipped.
func gramWalk(a, b *Packed, t tileSpec, out []int64, stride int, tri bool, mask *PairMask) {
	var va, vb [blockEdge]colView
	var da, db [blockEdge][]uint64
	var sums [blockEdge * blockEdge]int64
	for i0 := t.i0; i0 < t.i1; i0 += blockEdge {
		ni := min(blockEdge, t.i1-i0)
		aDense := ni == blockEdge
		for r := range ni {
			va[r] = a.view(i0 + r)
			da[r] = va[r].dense
			aDense = aDense && da[r] != nil
		}
		j0 := t.j0
		if tri {
			j0 = max(j0, i0)
		}
		for ; j0 < t.j1; j0 += blockEdge {
			nj := min(blockEdge, t.j1-j0)
			keep := blockKeep(i0, ni, j0, nj, tri, mask)
			if keep == 0 {
				continue
			}
			dense := aDense && nj == blockEdge
			for c := range nj {
				vb[c] = b.view(j0 + c)
				db[c] = vb[c].dense
				dense = dense && db[c] != nil
			}
			row := out[(i0-t.i0)*stride+j0-t.j0:]
			if dense && bits.OnesCount16(keep) >= minBlockCells {
				bitutil.PopcountAndBlock(&sums, &da, &db)
				for ; keep != 0; keep &= keep - 1 {
					k := bits.TrailingZeros16(keep)
					row[k/blockEdge*stride+k%blockEdge] += sums[k]
				}
				continue
			}
			for ; keep != 0; keep &= keep - 1 {
				k := bits.TrailingZeros16(keep)
				vi, vj := va[k/blockEdge], vb[k%blockEdge]
				if vi.empty() || vj.empty() {
					continue
				}
				row[k/blockEdge*stride+k%blockEdge] += int64(pairPopcount(vi, vj))
			}
		}
	}
}

// blockKeep returns the cells gramWalk writes in the ni×nj block at
// (i0, j0) as a bitmask, bit 4r+c for cell (i0+r, j0+c): every cell,
// less those below the diagonal when tri is set and those mask prunes.
func blockKeep(i0, ni, j0, nj int, tri bool, mask *PairMask) uint16 {
	full := uint16(1)<<nj - 1
	var keep uint16
	for r := range ni {
		cells := full
		if i := i0 + r; tri && j0 < i {
			cells &= full << (i - j0)
		}
		if mask != nil {
			for c := range nj {
				if !mask.Pair(i0+r, j0+c) {
					cells &^= 1 << c
				}
			}
		}
		keep |= cells << (r * blockEdge)
	}
	return keep
}

// tileSpec is one output tile: rows [i0, i1) × cols [j0, j1).
type tileSpec struct {
	i0, i1, j0, j1 int
}

// cells returns the tile's area, the length of its slab.
func (t tileSpec) cells() int { return (t.i1 - t.i0) * (t.j1 - t.j0) }

// tileEdge picks the edge length of the square output tiles: start from a
// cache-friendly 64×64 block and halve until the pool has at least four
// tiles per worker to balance (or the edge reaches its floor). count maps
// a candidate edge to the number of tiles it induces.
func tileEdge(workers int, count func(edge int) int) int {
	edge := 64
	for edge > 8 && count(edge) < 4*workers {
		edge /= 2
	}
	return edge
}

// GramBlock computes the Cols(a)×Cols(b) block of the Gram product between
// two packed column blocks a and b that share the same row space:
// out[i][j] = Σ_k popcount(a[k][i] ∧ b[k][j]). It is the local kernel of the
// distributed SUMMA product in internal/dist, where processor (s, t) of a 2D
// grid multiplies its row-panel copies of column blocks s and t.
func GramBlock(a, b *Packed) *sparse.Dense[int64] {
	return GramBlockWorkers(a, b, 1)
}

// GramBlockWorkers is GramBlock evaluated on a shared-memory worker pool
// (same workers convention as GramAccumulateWorkers): a fresh block that
// GramBlockAccumulateWorkers fills.
func GramBlockWorkers(a, b *Packed, workers int) *sparse.Dense[int64] {
	out := sparse.MustDense[int64](a.Cols, b.Cols)
	GramBlockAccumulateWorkers(a, b, out, workers)
	return out
}

// GramBlockAccumulateWorkers adds the Cols(a)×Cols(b) Gram block of a and b
// into the caller's block `into`, of that shape, on a shared-memory worker
// pool. The rectangular output is tiled into square blocks; tiles touch
// disjoint regions of into, so no synchronisation beyond the pool join is
// needed and the result is identical for every workers value. The two
// operands may use different storage layouts; every cell dispatches
// through pairPopcount.
func GramBlockAccumulateWorkers(a, b *Packed, into *sparse.Dense[int64], workers int) {
	if a.WordRows != b.WordRows || a.B != b.B {
		//gas:invariant both operands are column blocks of one corpus packing and share its row space by construction
		panic(fmt.Sprintf("bitmat: GramBlock row-space mismatch (%d,%d) vs (%d,%d)", a.WordRows, a.B, b.WordRows, b.B))
	}
	if into.Rows != a.Cols || into.Cols != b.Cols {
		//gas:invariant the caller's accumulator is the block of the operands' column ranges, sized once per run
		panic(fmt.Sprintf("bitmat: %dx%d block for a %dx%d Gram block", into.Rows, into.Cols, a.Cols, b.Cols))
	}
	workers = par.Resolve(workers)
	if workers <= 1 || a.Cols == 0 || b.Cols == 0 {
		gramBlockInto(a, b, into, tileSpec{0, a.Cols, 0, b.Cols})
		return
	}
	edge := tileEdge(workers, func(e int) int {
		return ((a.Cols + e - 1) / e) * ((b.Cols + e - 1) / e)
	})
	var tiles []tileSpec
	for i0 := 0; i0 < a.Cols; i0 += edge {
		i1 := min(i0+edge, a.Cols)
		for j0 := 0; j0 < b.Cols; j0 += edge {
			tiles = append(tiles, tileSpec{i0, i1, j0, min(j0+edge, b.Cols)})
		}
	}
	par.ForEach(workers, len(tiles), func(k int) {
		gramBlockInto(a, b, into, tiles[k])
	})
}

// gramBlockInto adds one output tile of the a×b Gram block through the
// same 4×4 block walk as the triangle's tiles (gramWalk), writing every
// cell of the tile.
func gramBlockInto(a, b *Packed, out *sparse.Dense[int64], t tileSpec) {
	gramWalk(a, b, t, out.Data[t.i0*out.Cols+t.j0:], out.Cols, false, nil)
}

// ColPopcounts returns the per-column set-bit counts, i.e. this batch's
// contribution to the per-sample cardinalities â of Eq. 4.
func (p *Packed) ColPopcounts() []int64 {
	out := make([]int64, p.Cols)
	for j := 0; j < p.Cols; j++ {
		if p.IsDense(j) {
			out[j] = int64(bitutil.PopcountSlice(p.denseColWords(j)))
			continue
		}
		lo, hi := p.colPtr[j], p.colPtr[j+1]
		out[j] = int64(bitutil.PopcountSlice(p.words[lo:hi]))
	}
	return out
}

// Entries returns the packed matrix as coordinate triples
// (wordRow, col, word), sorted by (col, wordRow) regardless of the storage
// layout; used to move packed blocks through the BSP runtime. The output
// is sized exactly from the stored-word counts.
func (p *Packed) Entries() []PackedEntry {
	out := make([]PackedEntry, 0, p.NNZWords())
	for j := 0; j < p.Cols; j++ {
		if p.IsDense(j) {
			for k, w := range p.denseColWords(j) {
				if w != 0 {
					out = append(out, PackedEntry{WordRow: k, Col: j, Word: w})
				}
			}
			continue
		}
		for k := p.colPtr[j]; k < p.colPtr[j+1]; k++ {
			out = append(out, PackedEntry{WordRow: p.wordRow[k], Col: j, Word: p.words[k]})
		}
	}
	return out
}

// PackedEntry is one nonzero packed word in coordinate form.
type PackedEntry struct {
	WordRow int
	Col     int
	Word    uint64
}

// FromEntries rebuilds a Packed matrix from coordinate packed entries with
// the DenseAuto layout. Entries for the same (wordRow, col) are
// OR-combined. Entries sorted by (col, wordRow) — the order Packed.Entries,
// the batch packing in internal/core and the grid's panel merge emit — are
// assembled in a single linear pass; any other order is first sorted in a
// copy.
func FromEntries(entries []PackedEntry, wordRows, cols, b, activeRows int) *Packed {
	return FromEntriesThreshold(entries, wordRows, cols, b, activeRows, DenseAuto)
}

// FromEntriesThreshold is FromEntries with an explicit dense-threshold spec.
func FromEntriesThreshold(entries []PackedEntry, wordRows, cols, b, activeRows, denseThreshold int) *Packed {
	return FromEntriesThresholdArena(entries, wordRows, cols, b, activeRows, denseThreshold, nil)
}

// FromEntriesThresholdArena is FromEntriesThreshold drawing the matrix's
// backing buffers (column pointers, sparse streams, dense slabs) from an
// Arena so a per-batch rebuild loop reuses one generation's buffers for the
// next. The caller must call Release on the returned matrix once it is done
// with it; a nil arena is exactly FromEntriesThreshold. The layout and
// contents are identical to the arena-free construction.
func FromEntriesThresholdArena(entries []PackedEntry, wordRows, cols, b, activeRows, denseThreshold int, arena *Arena) *Packed {
	sorted := true
	for i, e := range entries {
		if e.Col < 0 || e.Col >= cols || e.WordRow < 0 || e.WordRow >= wordRows {
			//gas:invariant entries are packed locally or checked against these dimensions on receipt (internal/dist validates every peer's panel)
			panic(fmt.Sprintf("bitmat: entry (%d,%d) out of range %dx%d", e.WordRow, e.Col, wordRows, cols))
		}
		if i > 0 && compareEntries(e, entries[i-1]) < 0 {
			sorted = false
		}
	}
	if !sorted {
		entries = slices.Clone(entries)
		slices.SortFunc(entries, compareEntries)
	}
	out := arena.getPacked()
	out.WordRows = wordRows
	out.Cols = cols
	out.B = b
	out.ActiveRows = activeRows
	out.threshold = denseThreshold
	out.colPtr = arena.getInts(cols + 1)
	out.arena = arena

	// Count pass: each column's stored words (duplicates are adjacent) pick
	// its layout by the same rule densify applies, so every buffer is sized
	// exactly and the sparse streams never hold a dense column's words.
	for i, e := range entries {
		if i == 0 || e.Col != entries[i-1].Col || e.WordRow != entries[i-1].WordRow {
			out.colPtr[e.Col+1]++
		}
	}
	t := resolveDenseThreshold(denseThreshold, wordRows)
	numDense := 0
	for j := 1; j <= cols; j++ {
		if t >= 0 && out.colPtr[j] >= t {
			numDense++
		}
	}
	if numDense > 0 {
		out.denseOff = arena.getInts(cols)
		out.slab = arena.getWords(numDense * wordRows)
	}
	off := 0
	for j := 0; j < cols; j++ {
		count := out.colPtr[j+1]
		if t >= 0 && count >= t {
			out.denseOff[j] = off
			off += wordRows
			count = 0
		} else if out.denseOff != nil {
			out.denseOff[j] = -1
		}
		out.colPtr[j+1] = out.colPtr[j] + count
	}
	out.wordRow = arena.getIntsCap(out.colPtr[cols])
	out.words = arena.getWordsCap(out.colPtr[cols])
	for i := 0; i < len(entries); {
		e := entries[i]
		word := e.Word
		for i++; i < len(entries) && entries[i].Col == e.Col && entries[i].WordRow == e.WordRow; i++ {
			word |= entries[i].Word
		}
		switch {
		case !out.IsDense(e.Col):
			out.wordRow = append(out.wordRow, e.WordRow)
			out.words = append(out.words, word)
		case word != 0:
			out.slab[out.denseOff[e.Col]+e.WordRow] = word
			out.slabNNZ++
		}
	}
	return out
}

// compareEntries orders packed entries by (col, wordRow).
func compareEntries(a, b PackedEntry) int {
	if c := cmp.Compare(a.Col, b.Col); c != 0 {
		return c
	}
	return cmp.Compare(a.WordRow, b.WordRow)
}
