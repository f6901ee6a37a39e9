// Package index implements the persistent similarity corpus: a set of
// packed column segments (internal/index/indexfile) that answers
// query-vs-corpus top-k and threshold searches with the exact popcount
// kernels, supports incremental append without recomputation, and can be
// opened without loading via mmap.
//
// The corpus is segmented LSM-style. The base segment holds the batch-built
// samples over a row map covering their attribute union; every Append adds
// a one-sample segment with its own row map. A query translates its sorted
// values through each segment's sorted row map (a value absent from the map
// cannot intersect any of that segment's samples): it gallops a row map far
// longer than itself, and probes any other, value by value, through a bit
// filter of its own values built once per query. It sets one bit per hit
// in a word-row bitmap over the segment's row space, and popcounts that
// bitmap against every resident column — the
// query side is always dense, so every candidate runs the slab or gather
// kernel, never an index merge. Appending therefore extends the Gram
// product by exactly one row band: the new column is packed once, and its
// intersections against the resident packed columns are computed by the
// same kernel a query uses — no rebuild, and append-then-query is
// bit-identical to rebuild-then-query because both paths feed identical
// integer cardinalities to the single Eq. 2 implementation (dist.Jaccard).
package index

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/index/indexfile"
	"genomeatscale/internal/minhash"
	"genomeatscale/internal/par"
)

// Source is the sample input a corpus is built from. core.InMemoryDataset
// satisfies it, as does any in-memory sample list; cliutil reads an
// out-of-core core.Dataset through it.
type Source interface {
	// NumSamples returns the number of samples.
	NumSamples() int
	// Sample returns the sorted, duplicate-free attribute values of
	// sample i. The returned slice is not modified.
	Sample(i int) []uint64
	// SampleName returns a human-readable identifier for sample i.
	SampleName(i int) string
}

// DefaultSketchSlack is the recall margin subtracted from the query
// threshold before the sketch gate is applied — the same margin the batch
// prescreen tier uses (core.DefaultSketchSlack; kept numerically in sync
// by a test).
const DefaultSketchSlack = 0.1

// Options configures Build.
type Options struct {
	// B is the packing width (bits per word row), 1..64. 0 means 64.
	B int
	// DenseThreshold is the bitmat dense-threshold spec (bitmat.DenseAuto,
	// bitmat.DenseNever or an explicit stored-word count).
	DenseThreshold int
	// SketchK, when positive, builds a bottom-k MinHash sketch of each
	// sample so thresholded queries can gate popcounts.
	SketchK int
}

// QueryOptions configures one Query.
type QueryOptions struct {
	// TopK limits the result to the k best neighbors (0 = unlimited).
	TopK int
	// Threshold keeps only neighbors with similarity ≥ Threshold. With
	// sketches present it also arms the sketch gate.
	Threshold float64
	// Workers bounds query parallelism (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// NoSketch disables the sketch gate even when sketches are present,
	// making a thresholded query exact.
	NoSketch bool
	// SketchSlack overrides the gate's recall margin (0 = DefaultSketchSlack).
	SketchSlack float64
}

// Neighbor is one query result: a corpus sample, its exact intersection
// cardinality with the query, and the Eq. 2 similarity derived from it.
type Neighbor struct {
	Sample       int     `json:"sample"`
	Name         string  `json:"name"`
	Intersection int64   `json:"intersection"`
	Similarity   float64 `json:"similarity"`
}

// Counters are the corpus's monotonic operation counters, exported to the
// query service's /metrics endpoint.
type Counters struct {
	Queries      int64 `json:"queries"`
	Appends      int64 `json:"appends"`
	Popcounts    int64 `json:"popcounts"`
	SketchSkips  int64 `json:"sketch_skips"`
	QuerySamples int64 `json:"query_samples"`
}

// Corpus is a searchable, appendable collection of packed sample columns.
// All methods are safe for concurrent use; queries proceed concurrently
// with each other and with at most one append.
type Corpus struct {
	b              int
	sketchK        int
	denseThreshold int

	mu     sync.Mutex // serialises appends and guards segs replacement
	segs   atomic.Pointer[[]*indexfile.Segment]
	total  atomic.Int64 // total samples across segments
	path   string       // backing file ("" = unbacked)
	mapped *indexfile.Mapped

	scratch sync.Pool // *queryScratch, one checked out per in-flight query

	queries      atomic.Int64
	appends      atomic.Int64
	popcounts    atomic.Int64
	sketchSkips  atomic.Int64
	querySamples atomic.Int64
}

// Build packs every sample of src into a single base segment. The row map
// is the sorted union of all attribute values, so the packed columns are
// exactly the filtered indicator matrix of the batch engine.
func Build(src Source, opts Options) (*Corpus, error) {
	c, err := newCorpus(opts)
	if err != nil {
		return nil, err
	}
	n := src.NumSamples()
	var rowMap []uint64
	for i := 0; i < n; i++ {
		rowMap = append(rowMap, src.Sample(i)...)
	}
	slices.Sort(rowMap)
	rowMap = slices.Compact(rowMap)

	rowsPerCol := make([][]int, n)
	cards := make([]int64, n)
	names := make([]string, n)
	var sketches []minhash.Sketch
	if c.sketchK > 0 {
		sketches = make([]minhash.Sketch, n)
	}
	for i := 0; i < n; i++ {
		vals := src.Sample(i)
		rows := make([]int, len(vals))
		r := 0
		for k, v := range vals {
			if k > 0 && v == vals[k-1] {
				return nil, fmt.Errorf("index: sample %d has duplicate value %d", i, v)
			}
			if k > 0 && v < vals[k-1] {
				return nil, fmt.Errorf("index: sample %d values not sorted", i)
			}
			// Ascending values are a subset of the union in union order, so
			// each is found at or after the row of the one before.
			r = gallop(rowMap, r, v)
			rows[k] = r
		}
		rowsPerCol[i] = rows
		cards[i] = int64(len(vals))
		names[i] = src.SampleName(i)
		if c.sketchK > 0 {
			sketches[i] = minhash.MustNew(vals, c.sketchK)
		}
	}
	seg := &indexfile.Segment{
		RowMap:   rowMap,
		Cards:    cards,
		Names:    names,
		Pack:     bitmat.PackColumnsThreshold(rowsPerCol, len(rowMap), c.b, c.denseThreshold),
		Sketches: sketches,
	}
	segs := []*indexfile.Segment{seg}
	c.segs.Store(&segs)
	c.total.Store(int64(n))
	return c, nil
}

func newCorpus(opts Options) (*Corpus, error) {
	b := opts.B
	if b == 0 {
		b = 64
	}
	if b < 1 || b > 64 {
		return nil, fmt.Errorf("index: packing width %d outside [1,64]", b)
	}
	if opts.SketchK < 0 {
		return nil, fmt.Errorf("index: negative sketch size %d", opts.SketchK)
	}
	c := &Corpus{b: b, sketchK: opts.SketchK, denseThreshold: opts.DenseThreshold}
	c.scratch.New = func() any { return new(queryScratch) }
	empty := []*indexfile.Segment{}
	c.segs.Store(&empty)
	return c, nil
}

// gallop returns the first index i ≥ lo with a[i] ≥ v, or len(a): an
// exponential probe forward from lo, then a bisection of the bracket it
// found. Walking two sorted lists with it costs O(log gap) per step rather
// than a binary search of the whole list per value, and touches memory in
// order.
func gallop(a []uint64, lo int, v uint64) int {
	if lo >= len(a) || a[lo] >= v {
		return lo
	}
	// Invariant: a[lo] < v, and hi == len(a) or a[hi] ≥ v once the probe stops.
	hi := lo + 1
	for step := 1; hi < len(a) && a[hi] < v; step <<= 1 {
		lo = hi
		hi += step
	}
	hi = min(hi, len(a))
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// gallopRatio is the row-map-to-query length ratio from which galloping
// through the row map beats probing every row-map value through the
// query's bit filter. A probe is independent of the last, so the filter
// walk costs a few nanoseconds per row-map value whatever the query; a
// gallop is a chain of dependent loads per query value, about log₂ of the
// ratio deep. For a 768-value query (BenchmarkSetRowsSweep, 2-CPU 2.1 GHz
// Xeon VM) the filter takes 1.0 µs against the gallop's 2.7 µs at 1:1, the
// two are level at about 4 µs at 1:4, and galloping wins from there on
// (5.4 µs against 8.1 µs at 1:8, 8.2 µs against 34 µs at 1:32). A
// loaded host doubles every time and keeps the crossover.
const gallopRatio = 4

// setRows translates the sorted query values through a segment's sorted
// row map and sets bit r%b of bitmap[r/b] for every row r whose value the
// query holds. Values outside the row map set nothing: they cannot
// intersect any resident column.
//
// The path is picked from the two lengths. A row map far longer than the
// query — the base segment's attribute union — is galloped once per query
// value. Any other row map — an appended sample's own values — is probed
// value by value through the query's bit filter (built on first use, once
// per query), and only a filter hit gallops forward in the query to
// confirm it.
func (s *queryScratch) setRows(bitmap, rowMap, vals []uint64, b int) {
	if len(vals) == 0 || len(rowMap) == 0 {
		return
	}
	if len(rowMap) >= gallopRatio*len(vals) {
		gallopRows(bitmap, rowMap, vals, b)
		return
	}
	if !s.filterReady {
		s.filter.build(vals)
		s.filterReady = true
	}
	s.filter.probeRows(bitmap, rowMap, vals, b)
}

// gallopRows is setRows for a row map far longer than the query: each
// query value gallops the row map forward from the previous one's row.
func gallopRows(bitmap, rowMap, vals []uint64, b int) {
	r := 0
	for _, v := range vals {
		if r = gallop(rowMap, r, v); r == len(rowMap) {
			return
		}
		if rowMap[r] == v {
			bitmap[r/b] |= 1 << uint(r%b)
		}
	}
}

// maxFilterWords caps a filter at 128 KiB whatever the query's length. A
// fuller filter passes more values to the exact check, so answers do not
// change, and a pooled scratch never keeps more than this for its filter.
const maxFilterWords = 1 << 14

// bitFilter is a blocked Bloom filter of a query's values: each value sets
// two bits of one word, so a probe is one load and a clear bit proves the
// value absent. The filter has a word per query value, rounded up to a
// power of two, and then lets about one value in a thousand outside the
// query pass; every pass is confirmed against the values.
type bitFilter struct {
	words []uint64 // a power-of-two count, at most maxFilterWords
}

// fib is the Fibonacci multiplier: the high bits of v·fib depend on every
// bit of v.
const fib = 0x9E3779B97F4A7C15

// probe returns the word and the two-bit mask of value v: the word index is
// the 14 bits below the top six of v·fib, cut to the filter's size; the
// two bit positions are the 12 bits below those. Constant shifts keep a
// probe a handful of instructions.
func probe(v uint64, wordMask uint64) (uint64, uint64) {
	h := v * fib
	return h >> 44 & wordMask, 1<<(h>>38&63) | 1<<(h>>32&63)
}

// build sizes the filter from the query length and adds every value.
func (f *bitFilter) build(vals []uint64) {
	n := 1
	for n < len(vals) && n < maxFilterWords {
		n <<= 1
	}
	if cap(f.words) < n {
		f.words = make([]uint64, n)
	}
	f.words = f.words[:n]
	clear(f.words)
	wordMask := uint64(n - 1)
	for _, v := range vals {
		w, m := probe(v, wordMask)
		f.words[w] |= m
	}
}

// probeRows is setRows through the filter built from vals. The probes of
// successive row-map values are independent and almost all miss, so the
// scan for the next pass runs at load throughput rather than a merge's
// load latency; each pass is confirmed by galloping a cursor into vals,
// which stays forward because the row map ascends.
func (f *bitFilter) probeRows(bitmap, rowMap, vals []uint64, b int) {
	i := 0
	for r := f.next(rowMap, 0); r < len(rowMap); r = f.next(rowMap, r+1) {
		m := rowMap[r]
		if i = gallop(vals, i, m); i == len(vals) {
			return
		}
		if vals[i] == m {
			bitmap[r/b] |= 1 << uint(r%b)
		}
	}
}

// next returns the first row r ≥ from whose value passes the filter, or
// len(rowMap).
func (f *bitFilter) next(rowMap []uint64, from int) int {
	words := f.words
	wordMask := uint64(len(words) - 1)
	for r := from; r < len(rowMap); r++ {
		if w, bm := probe(rowMap[r], wordMask); words[w]&bm == bm {
			return r
		}
	}
	return len(rowMap)
}

// WriteFile persists the corpus to path and binds it as the backing file:
// subsequent Appends are durably appended there.
func (c *Corpus) WriteFile(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := &indexfile.File{B: c.b, SketchK: c.sketchK, Segments: *c.segs.Load()}
	if err := indexfile.WriteFile(path, f); err != nil {
		return err
	}
	c.path = path
	return nil
}

// Open maps an index file without loading it: metadata is validated, the
// packed payloads stay on disk and page in on first use. The corpus stays
// bound to the file, so Appends persist. Close must be called to unmap.
func Open(path string) (*Corpus, error) {
	m, err := indexfile.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	c, err := fromFile(m.File, path)
	if err != nil {
		m.Close()
		return nil, err
	}
	c.mapped = m
	return c, nil
}

// Load reads an index file fully into memory. The corpus stays bound to
// the file for Append persistence, but needs no Close.
func Load(path string) (*Corpus, error) {
	f, err := indexfile.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return fromFile(f, path)
}

func fromFile(f *indexfile.File, path string) (*Corpus, error) {
	spec := bitmat.DenseAuto
	if len(f.Segments) > 0 {
		spec = f.Segments[0].Pack.DenseThresholdSpec()
	}
	c, err := newCorpus(Options{B: f.B, DenseThreshold: spec, SketchK: f.SketchK})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, seg := range f.Segments {
		total += seg.Samples()
	}
	c.segs.Store(&f.Segments)
	c.total.Store(int64(total))
	c.path = path
	return c, nil
}

// Close unmaps a mapped corpus; it is a no-op otherwise. The corpus must
// not be used afterwards.
func (c *Corpus) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mapped == nil {
		return nil
	}
	m := c.mapped
	c.mapped = nil
	empty := []*indexfile.Segment{}
	c.segs.Store(&empty)
	c.total.Store(0)
	return m.Close()
}

// Samples returns the number of samples in the corpus.
func (c *Corpus) Samples() int { return int(c.total.Load()) }

// Segments returns the number of segments (1 + number of appends since
// the last full build).
func (c *Corpus) Segments() int { return len(*c.segs.Load()) }

// B returns the packing width.
func (c *Corpus) B() int { return c.b }

// SketchK returns the per-sample sketch size (0 = no sketches).
func (c *Corpus) SketchK() int { return c.sketchK }

// Path returns the backing file path ("" when unbacked).
func (c *Corpus) Path() string { return c.path }

// Names returns all sample names in global order.
func (c *Corpus) Names() []string {
	segs := *c.segs.Load()
	var names []string
	for _, seg := range segs {
		names = append(names, seg.Names...)
	}
	return names
}

// Counters returns a snapshot of the operation counters.
func (c *Corpus) Counters() Counters {
	return Counters{
		Queries:      c.queries.Load(),
		Appends:      c.appends.Load(),
		Popcounts:    c.popcounts.Load(),
		SketchSkips:  c.sketchSkips.Load(),
		QuerySamples: c.querySamples.Load(),
	}
}

// MemoryWords returns the packed storage footprint in 8-byte words across
// all segments (resident or mapped).
func (c *Corpus) MemoryWords() int64 {
	var words int64
	for _, seg := range *c.segs.Load() {
		words += int64(seg.Pack.MemoryWords())
	}
	return words
}

// normalize returns the values sorted and duplicate-free without
// modifying the caller's slice. Input that is already strictly ascending —
// what every client that read a sample file sends — is returned as is, not
// copied.
func normalize(values []uint64) []uint64 {
	sorted := true
	for i := 1; i < len(values) && sorted; i++ {
		sorted = values[i-1] < values[i]
	}
	if sorted {
		return values
	}
	vals := slices.Clone(values)
	slices.Sort(vals)
	return slices.Compact(vals)
}

// queryChunk is the number of corpus columns one parallel task scans —
// coarse enough that task handout does not dominate the popcounts.
const queryChunk = 256

// queryScratch is the working memory of one in-flight query, reused from
// segment to segment and, through Corpus.scratch, from query to query.
type queryScratch struct {
	bitmap []uint64 // the query's rows in the current segment, one bit each
	inter  []int64  // per column of the current segment: |query ∩ sample|, or gated

	filter      bitFilter // the current query's values, once a segment needs them
	filterReady bool      // filter holds the current query; cleared per query
}

// gated marks a column the sketch gate ruled out in queryScratch.inter.
const gated = -1

// segment returns the scratch sized for one segment: a zeroed bitmap of
// wordRows words and an intersection slot for each of n columns.
func (s *queryScratch) segment(wordRows, n int) ([]uint64, []int64) {
	if cap(s.bitmap) < wordRows {
		s.bitmap = make([]uint64, wordRows)
	}
	if cap(s.inter) < n {
		s.inter = make([]int64, n)
	}
	bitmap := s.bitmap[:wordRows]
	clear(bitmap)
	return bitmap, s.inter[:n]
}

// sketchGate is the MinHash prescreen of one thresholded query.
type sketchGate struct {
	query minhash.Sketch
	tau   float64
}

// gateFor returns the gate of a thresholded query over a corpus with
// sketches, or nil when nothing is to be ruled out: no threshold, no
// sketches, NoSketch set, or a margin that reaches zero.
func (c *Corpus) gateFor(vals []uint64, opts QueryOptions) *sketchGate {
	if opts.Threshold <= 0 || c.sketchK == 0 || opts.NoSketch {
		return nil
	}
	slack := opts.SketchSlack
	if slack == 0 {
		slack = DefaultSketchSlack
	}
	tau := opts.Threshold - slack
	if tau <= 0 {
		return nil
	}
	return &sketchGate{query: minhash.MustNew(vals, c.sketchK), tau: tau}
}

// scan fills inter[lo:hi] with each column's exact intersection with the
// query bitmap, or gated where the sketch estimate rules the sample out.
// It writes only those slots, so chunks of one segment may run concurrently.
func scan(seg *indexfile.Segment, bitmap []uint64, gate *sketchGate, inter []int64, lo, hi int) {
	for j := lo; j < hi; j++ {
		if gate != nil {
			if ok, err := minhash.EstimateAtLeast(gate.query, seg.Sketches[j], gate.tau); err == nil && !ok {
				inter[j] = gated
				continue
			}
		}
		inter[j] = int64(seg.Pack.ColPopcountAnd(j, bitmap))
	}
}

// compareNeighbors orders results: similarity descending, ties by
// ascending sample index — a total order, samples being distinct.
func compareNeighbors(a, b Neighbor) int {
	switch {
	case a.Similarity > b.Similarity:
		return -1
	case a.Similarity < b.Similarity:
		return 1
	default:
		return a.Sample - b.Sample
	}
}

// selection collects a query's neighbors, keeping only the k best when k
// is positive: once k are held they form a heap with the worst at the
// root, and a later candidate either displaces the root or is dropped.
// Because compareNeighbors is a total order the survivors are exactly the
// first k of the fully sorted candidate list.
type selection struct {
	k     int
	items []Neighbor
}

func (s *selection) push(nb Neighbor) {
	if s.k <= 0 || len(s.items) < s.k {
		s.items = append(s.items, nb)
		if len(s.items) == s.k {
			for i := s.k/2 - 1; i >= 0; i-- {
				s.siftDown(i)
			}
		}
		return
	}
	if compareNeighbors(nb, s.items[0]) < 0 {
		s.items[0] = nb
		s.siftDown(0)
	}
}

// siftDown restores the worst-at-root heap below position i.
func (s *selection) siftDown(i int) {
	for {
		worst := i
		for child := 2*i + 1; child <= 2*i+2 && child < len(s.items); child++ {
			if compareNeighbors(s.items[child], s.items[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return
		}
		s.items[i], s.items[worst] = s.items[worst], s.items[i]
		i = worst
	}
}

// sorted returns the collected neighbors in result order.
func (s *selection) sorted() []Neighbor {
	slices.SortFunc(s.items, compareNeighbors)
	return s.items
}

// Query returns the samples most similar to the given value set, exactly:
// every similarity is derived from an exact packed intersection via Eq. 2.
// Results are ordered by descending similarity, ties by ascending sample
// index — the order of the batch engine's TopK/Threshold sinks, so a
// served query is bit-identical to a batch run over the same corpus.
//
// With a positive Threshold and sketches present (and NoSketch unset), a
// MinHash gate at Threshold−SketchSlack skips samples whose estimated
// similarity is hopeless — same recall contract as the batch prescreen
// tier.
func (c *Corpus) Query(ctx context.Context, values []uint64, opts QueryOptions) ([]Neighbor, error) {
	if opts.TopK < 0 {
		return nil, fmt.Errorf("index: negative top-k %d", opts.TopK)
	}
	if opts.Threshold < 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("index: threshold %v outside [0,1]", opts.Threshold)
	}
	c.queries.Add(1)
	vals := normalize(values)
	qCard := int64(len(vals))

	gate := c.gateFor(vals, opts)

	segs := *c.segs.Load()
	total := 0
	for _, seg := range segs {
		total += seg.Samples()
	}
	sel := selection{k: opts.TopK}
	if sel.k > 0 {
		sel.items = make([]Neighbor, 0, min(sel.k, total))
	}
	scratch := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(scratch)
	scratch.filterReady = false

	var pops, skips int64
	base := 0
	for _, seg := range segs {
		n := seg.Samples()
		if n == 0 {
			continue
		}
		bitmap, inter := scratch.segment(seg.Pack.WordRows, n)
		scratch.setRows(bitmap, seg.RowMap, vals, c.b)
		if n <= queryChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			scan(seg, bitmap, gate, inter, 0, n)
		} else if err := par.ForEachCtx(ctx, opts.Workers, (n+queryChunk-1)/queryChunk, func(chunk int) {
			lo := chunk * queryChunk
			scan(seg, bitmap, gate, inter, lo, min(lo+queryChunk, n))
		}); err != nil {
			return nil, err
		}
		for j, b := range inter {
			if b == gated {
				skips++
				continue
			}
			pops++
			sim := dist.Jaccard(b, qCard, seg.Cards[j])
			if sim < opts.Threshold {
				continue
			}
			sel.push(Neighbor{Sample: base + j, Name: seg.Names[j], Intersection: b, Similarity: sim})
		}
		base += n
	}
	c.popcounts.Add(pops)
	c.sketchSkips.Add(skips)
	c.querySamples.Add(int64(total))
	if len(sel.items) == 0 {
		return nil, nil
	}
	return sel.sorted(), nil
}

// Append adds one sample to the corpus as a new segment and returns its
// global index. The segment's row map is the sample's own value set, so
// the cost is O(|values| log |values|) — no recomputation against the
// resident columns; their intersections with the new sample are computed
// on demand by Query through the same popcount kernel. When the corpus is
// file-backed the segment is durably appended (fsync'd data, then a
// published segment count) before it becomes visible to queries.
func (c *Corpus) Append(name string, values []uint64) (int, error) {
	vals := slices.Clone(normalize(values)) // the segment keeps them as its row map
	rows := make([]int, len(vals))
	for i := range rows {
		rows[i] = i
	}
	var sketches []minhash.Sketch
	if c.sketchK > 0 {
		sketches = []minhash.Sketch{minhash.MustNew(vals, c.sketchK)}
	}
	seg := &indexfile.Segment{
		RowMap:   vals,
		Cards:    []int64{int64(len(vals))},
		Names:    []string{name},
		Pack:     bitmat.PackColumnsThreshold([][]int{rows}, len(vals), c.b, c.denseThreshold),
		Sketches: sketches,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path != "" {
		if err := indexfile.AppendSegment(c.path, seg, c.b, c.sketchK); err != nil {
			return 0, err
		}
	}
	old := *c.segs.Load()
	segs := make([]*indexfile.Segment, len(old)+1)
	copy(segs, old)
	segs[len(old)] = seg
	c.segs.Store(&segs)
	id := int(c.total.Add(1)) - 1
	c.appends.Add(1)
	return id, nil
}
