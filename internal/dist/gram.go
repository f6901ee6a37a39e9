package dist

import (
	"fmt"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/grid"
	"genomeatscale/internal/par"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// Tags for the engine's point-to-point traffic. Collectives use negative
// tags, so any non-negative constants are safe; distinct values keep the A
// and B panels of one superstep separable in the shared inbox.
const (
	tagAPanel       = 101
	tagBPanel       = 102
	tagLayerPartial = 103
	tagTileEmit     = 104
)

// entrySlice is the wire form of a batch of packed-word coordinates. Each
// entry carries a word row, a column and a 64-bit mask word: 24 bytes.
type entrySlice []bitmat.PackedEntry

// ByteSize implements bsp.ByteSizer so the BSP accounting charges the exact
// coordinate volume (8 bytes each for word row, column and mask word).
func (e entrySlice) ByteSize() int { return 24 * len(e) }

// packedWire moves a packed block between ranks: the coordinate entries
// plus the dimensions and dense-threshold spec needed to rebuild it with
// bitmat.FromEntriesThreshold, so a replicated panel re-adopts the hybrid
// dense/sparse layout of its origin at the receiving rank.
type packedWire struct {
	Entries        entrySlice
	WordRows       int
	Cols           int
	B              int
	ActiveRows     int
	DenseThreshold int
}

// ByteSize implements bsp.ByteSizer: the entries plus five dimension words.
func (w packedWire) ByteSize() int { return w.Entries.ByteSize() + 40 }

func toWire(p *bitmat.Packed) packedWire {
	return packedWire{
		Entries:        p.Entries(),
		WordRows:       p.WordRows,
		Cols:           p.Cols,
		B:              p.B,
		ActiveRows:     p.ActiveRows,
		DenseThreshold: p.DenseThresholdSpec(),
	}
}

func fromWire(w packedWire) *bitmat.Packed {
	return bitmat.FromEntriesThreshold(w.Entries, w.WordRows, w.Cols, w.B, w.ActiveRows, w.DenseThreshold)
}

// GramEngine accumulates the distributed Gram product B = Σ_l Â(l)ᵀÂ(l)
// (Eq. 4, 7) on the processor grid. Rank (s, t, q) owns the (s, t) block of
// B under the contiguous block distribution of the n samples over the
// per-layer 2D grid, and layer q contributes the word-row slice
// LayerWordRows of every batch's contraction dimension; Finalize sums the
// per-layer partial blocks (the 3D algorithm's inter-layer reduction).
type GramEngine struct {
	ctx            *Context
	n              int
	workers        int // shared-memory workers for the local popcount kernel
	denseThreshold int // bitmat dense-threshold spec for panel assembly

	rowLo, rowHi int // B rows owned by this rank's grid row
	colLo, colHi int // B cols owned by this rank's grid column

	acc *sparse.Dense[int64] // this layer's partial block of B
}

// NewGramEngine prepares a per-rank engine for an n-sample run. workers is
// the shared-memory worker count for this rank's local Gram kernel
// (par.Resolve semantics: 0 = one per CPU, 1 = serial); since every rank of
// an in-process run spawns its own pool, runs with many virtual ranks
// typically pass 1. denseThreshold is the bitmat dense-threshold spec
// (bitmat.DenseAuto, bitmat.DenseNever or an explicit stored-word count)
// applied when batch panels are assembled from their coordinate entries;
// it selects the storage layout — and thereby the popcount kernel — of the
// local SUMMA multiply.
func NewGramEngine(ctx *Context, n, workers, denseThreshold int) *GramEngine {
	e := &GramEngine{ctx: ctx, n: n, workers: par.Resolve(workers), denseThreshold: denseThreshold}
	e.rowLo, e.rowHi = ctx.RowBlock(n)
	e.colLo, e.colHi = ctx.ColBlock(n)
	e.acc = sparse.MustDense[int64](e.rowHi-e.rowLo, e.colHi-e.colLo)
	return e
}

// AddBatch folds one batch's compressed matrix Â(l) into the accumulator.
// Every rank passes the packed-word coordinates of its owned samples
// (columns); the engine routes each word to the layer owning its slice of
// the contraction dimension, assembles the per-grid-row A panel and
// per-grid-column B panel there, replicates the panels along grid.RowPeers
// and grid.ColPeers (the SUMMA broadcast pattern), and multiplies the local
// panels with the popcount-AND kernel. AddBatch is a collective: all ranks
// must call it once per batch with the same wordRows/maskBits/activeRows.
//
// Three supersteps per batch: A-panel routing, B-panel routing, panel
// broadcast.
func (e *GramEngine) AddBatch(entries []bitmat.PackedEntry, wordRows, maskBits, activeRows int) {
	g := e.ctx.Grid
	p := e.ctx.P
	np := p.NProcs()

	// Route every packed word to the home ranks of its panel blocks within
	// the layer that owns its word row: column j of Â contributes to grid
	// row BlockOwner(n, Rows, j) as part of the Aᵀ operand (home (s, 0, q))
	// and to grid column BlockOwner(n, Cols, j) as part of the A operand
	// (home (0, t, q)).
	aOut := make([]entrySlice, np)
	bOut := make([]entrySlice, np)
	for _, ent := range entries {
		if ent.WordRow < 0 || ent.WordRow >= wordRows {
			//gas:invariant entries come from Packed.Entries() of a matrix built over this same word-row space
			panic(fmt.Sprintf("dist: word row %d out of range [0,%d)", ent.WordRow, wordRows))
		}
		layer := grid.BlockOwner(wordRows, g.Layers, ent.WordRow)
		s := grid.BlockOwner(e.n, g.Rows, ent.Col)
		t := grid.BlockOwner(e.n, g.Cols, ent.Col)
		aHome := g.Rank(s, 0, layer)
		bHome := g.Rank(0, t, layer)
		aOut[aHome] = append(aOut[aHome], ent)
		bOut[bHome] = append(bOut[bHome], ent)
	}
	aIn := bsp.AllToAll(p, aOut)
	bIn := bsp.AllToAll(p, bOut)

	layerLo, layerHi := e.ctx.LayerWordRows(wordRows)

	// Assemble the panels at their home ranks. The received coordinates are
	// in the batch's global (word row, column) space; WordRowRange slices
	// out this layer's share of the contraction dimension and ColRange
	// extracts the block's columns, both rebased to local indices.
	var aPanel, bPanel *bitmat.Packed
	if e.ctx.Col == 0 {
		var got entrySlice
		for _, part := range aIn {
			got = append(got, part...)
		}
		full := bitmat.FromEntriesThreshold(got, wordRows, e.n, maskBits, activeRows, e.denseThreshold)
		aPanel = full.WordRowRange(layerLo, layerHi).ColRange(e.rowLo, e.rowHi)
	}
	if e.ctx.Row == 0 {
		var got entrySlice
		for _, part := range bIn {
			got = append(got, part...)
		}
		full := bitmat.FromEntriesThreshold(got, wordRows, e.n, maskBits, activeRows, e.denseThreshold)
		bPanel = full.WordRowRange(layerLo, layerHi).ColRange(e.colLo, e.colHi)
	}

	// SUMMA-style panel replication: the A panel of grid row s travels along
	// RowPeers(s, q), the B panel of grid column t along ColPeers(t, q).
	if e.ctx.Col == 0 {
		for _, peer := range g.RowPeers(e.ctx.Row, e.ctx.Layer) {
			if peer != p.Rank() {
				p.Send(peer, tagAPanel, toWire(aPanel))
			}
		}
	}
	if e.ctx.Row == 0 {
		for _, peer := range g.ColPeers(e.ctx.Col, e.ctx.Layer) {
			if peer != p.Rank() {
				p.Send(peer, tagBPanel, toWire(bPanel))
			}
		}
	}
	p.Sync()
	if e.ctx.Col != 0 {
		msgs := p.RecvAll(tagAPanel)
		if len(msgs) != 1 {
			//gas:invariant superstep protocol invariant: exactly the column-0 home rank sends one A panel on this tag
			panic(fmt.Sprintf("dist: rank %d expected 1 A panel, got %d", p.Rank(), len(msgs)))
		}
		aPanel = fromWire(msgs[0].Payload.(packedWire))
	}
	if e.ctx.Row != 0 {
		msgs := p.RecvAll(tagBPanel)
		if len(msgs) != 1 {
			//gas:invariant superstep protocol invariant: exactly the row-0 home rank sends one B panel on this tag
			panic(fmt.Sprintf("dist: rank %d expected 1 B panel, got %d", p.Rank(), len(msgs)))
		}
		bPanel = fromWire(msgs[0].Payload.(packedWire))
	}

	// Local kernel: this rank's block of Â(l)ᵀÂ(l) restricted to the
	// layer's word rows, computed on this rank's worker pool and
	// accumulated into the per-layer partial of B. partial and acc share
	// the (rowHi-rowLo)×(colHi-colLo) block shape, so the accumulation is a
	// flat indexed sum.
	partial := bitmat.GramBlockWorkers(aPanel, bPanel, e.workers)
	for idx, v := range partial.Data {
		e.acc.Data[idx] += v
	}
	p.AddFlops(int64(aPanel.NNZWords()) * int64(bPanel.Cols))
	p.NoteMemory(int64(aPanel.MemoryWords()+bPanel.MemoryWords()) + int64(len(e.acc.Data)))
}

// Finalize reduces the per-layer partial blocks onto layer 0 (the 3D
// algorithm's inter-layer sum) and returns this rank's view of the result.
// counts must be the globally combined per-sample cardinalities â (Eq. 4),
// identical on every rank. Finalize is a collective; one superstep.
func (e *GramEngine) Finalize(counts []int64) *Blocks {
	if len(counts) != e.n {
		//gas:invariant counts is the AllReduce result over this run's n samples, identical on every rank by the collective's semantics
		panic(fmt.Sprintf("dist: %d cardinalities for %d samples", len(counts), e.n))
	}
	g := e.ctx.Grid
	p := e.ctx.P
	if e.ctx.Layer != 0 {
		p.Send(g.Rank(e.ctx.Row, e.ctx.Col, 0), tagLayerPartial, e.acc.Data)
	}
	p.Sync()
	bl := &Blocks{
		ctx: e.ctx, counts: counts, workers: e.workers,
		rowLo: e.rowLo, rowHi: e.rowHi, colLo: e.colLo, colHi: e.colHi,
	}
	if e.ctx.Layer != 0 {
		return bl
	}
	for _, m := range p.RecvAll(tagLayerPartial) {
		part := m.Payload.([]int64)
		if len(part) != len(e.acc.Data) {
			//gas:invariant layer partials are accumulator snapshots of identically shaped blocks from this same run
			panic(fmt.Sprintf("dist: layer partial size %d, want %d", len(part), len(e.acc.Data)))
		}
		for i, v := range part {
			e.acc.Data[i] += v
		}
	}
	bl.b = e.acc
	return bl
}

// Blocks is the block-distributed result of a run: layer-0 rank (s, t)
// holds the (s, t) block of the intersection matrix B together with the
// replicated cardinalities, from which it can derive its blocks of S and D
// without further communication (Eq. 2).
type Blocks struct {
	ctx     *Context
	counts  []int64
	workers int // shared-memory workers for the blockwise Eq. 2 derivation

	rowLo, rowHi, colLo, colHi int

	b *sparse.Dense[int64] // nil on layers > 0
}

// tile derives this rank's block of S and D from its B block (Eq. 2) and
// returns the three as one positioned tile. The derivation is row-parallel
// on the rank's worker pool: each output row is owned by one index, so the
// writes are disjoint.
func (bl *Blocks) tile() *tile.Tile {
	rows, cols := bl.rowHi-bl.rowLo, bl.colHi-bl.colLo
	s := make([]float64, rows*cols)
	d := make([]float64, rows*cols)
	par.ForEach(bl.workers, rows, func(i int) {
		JaccardRow(s[i*cols:(i+1)*cols], d[i*cols:(i+1)*cols], bl.b.Row(i), bl.counts[bl.rowLo+i], bl.counts[bl.colLo:bl.colHi])
	})
	return &tile.Tile{RowLo: bl.rowLo, ColLo: bl.colLo, Rows: rows, Cols: cols, B: bl.b.Data, S: s, D: d}
}

// EmitTiles is how the result leaves the grid: every layer-0 rank
// finalizes its block of the result — deriving S and D from B via Eq. 2 —
// and ships it to root as one positioned tile carrying all three matrices;
// root invokes emit once per non-empty tile without ever assembling the
// n×n matrices. A full gather is this collective driving a tile-collecting
// sink.
//
// Emission is staggered one grid block per superstep, in (RowLo, ColLo)
// order: a block's S and D are derived lazily on its owner just before its
// turn and dropped right after, so at any instant the run holds at most
// one in-flight derived tile plus root's copy — the property that makes
// streaming memory-bounded — at the cost of Grid.Rows × Grid.Cols
// supersteps instead of one.
//
// EmitTiles is a collective (every rank must call it). Root's emit errors
// abort the emission and are returned at root — the BSP abort machinery
// unwinds the other ranks when root's rank function returns the error;
// other ranks return nil. The *tile.Tile passed to emit is only valid for
// the duration of the call.
func (bl *Blocks) EmitTiles(root int, emit func(*tile.Tile) error) error {
	g := bl.ctx.Grid
	p := bl.ctx.P
	for s := 0; s < g.Rows; s++ {
		for t := 0; t < g.Cols; t++ {
			owner := g.Rank(s, t, 0)
			var local *tile.Tile
			if p.Rank() == owner && bl.b != nil && bl.rowHi > bl.rowLo && bl.colHi > bl.colLo {
				local = bl.tile()
				if p.Rank() != root {
					p.Send(root, tagTileEmit, local)
					local = nil
				}
			}
			p.Sync()
			if p.Rank() != root {
				continue
			}
			if msgs := p.RecvAll(tagTileEmit); len(msgs) > 0 {
				if len(msgs) != 1 {
					//gas:invariant superstep protocol invariant: exactly one rank owns block (s,t) and sends one tile on this tag
					panic(fmt.Sprintf("dist: root expected 1 tile for block (%d,%d), got %d", s, t, len(msgs)))
				}
				local = msgs[0].Payload.(*tile.Tile)
			}
			if local != nil {
				if err := emit(local); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
