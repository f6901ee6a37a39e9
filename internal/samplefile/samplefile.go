// Package samplefile implements the on-disk sample representation of
// GenomeAtScale: "GenomeAtScale includes infrastructure to produce files
// with a sorted numerical representation for each data sample. Each
// processor is responsible for reading in a subset of these files, scanning
// through one batch at a time." (Section IV).
//
// A sample file holds one data sample as a sorted list of attribute values
// (for genomes, 2-bit packed k-mer codes). Two encodings are supported:
//
//   - text: one decimal value per line (the format of the paper's Listing 2
//     pseudocode, also accepted by cmd/similarityatscale), and
//   - binary: a small header followed by delta-encoded varint values, which
//     is far more compact for the hypersparse k-mer sets of real samples.
//
// DirDataset exposes a directory of such files as a core.Dataset: samples
// load lazily — in parallel, with per-sample single-flight deduplication —
// and failures (unreadable files, corrupt encodings, values outside the
// declared universe) propagate as errors through the pipelines instead of
// panicking. A cache entry holds the file's bytes in the binary encoding
// (text files are parsed and re-encoded at load), about two bytes per
// value; a load checks only the header. Batch reads (SampleRange) decode
// just their value range, resuming where the sample's previous range read
// stopped, so a multi-batch scan decodes each value about once however
// often eviction makes it reload the file. A header error shows
// at load, a body error in the batch read that reaches it; the batch
// ranges partition the universe, so a run still meets every byte. With a
// prefetch window configured, the loader reads the next block of samples
// while the current block computes and evicts least-recently-used samples
// so the resident set stays bounded by about two blocks, no matter how
// many files the collection holds.
package samplefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"genomeatscale/internal/core"
)

// binaryMagic identifies binary sample files.
var binaryMagic = [8]byte{'G', 'A', 'S', 'S', 'M', 'P', 'L', '1'}

// WriteText writes a sample as one decimal value per line, sorted and
// de-duplicated. Close failures are reported: on a full disk the write-back
// of buffered data can fail only at close time, and swallowing that error
// would silently lose data.
func WriteText(path string, values []uint64) (err error) {
	cleaned := normalize(values)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("samplefile: closing %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriter(f)
	for _, v := range cleaned {
		if _, err := fmt.Fprintln(w, v); err != nil {
			return fmt.Errorf("samplefile: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	return nil
}

// parseText parses the text encoding held in data.
func parseText(path string, data []byte) ([]uint64, error) {
	var out []uint64
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if k := bytes.IndexByte(data, '\n'); k >= 0 {
			line, data = data[:k], data[k+1:]
		} else {
			data = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		v, err := strconv.ParseUint(string(line), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("samplefile: %s:%d: %w", path, lineNo, err)
		}
		out = append(out, v)
	}
	return normalize(out), nil
}

// WriteBinary writes a sample in the compact binary encoding: the magic,
// the value count, and the sorted values as varint deltas. Like WriteText
// it reports close failures, which is where a full disk surfaces.
func WriteBinary(path string, values []uint64) (err error) {
	data := appendBinary(nil, normalize(values))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("samplefile: closing %s: %w", path, cerr)
		}
	}()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	return nil
}

// appendBinary appends the binary encoding of sorted, duplicate-free
// values to dst.
func appendBinary(dst []byte, sorted []uint64) []byte {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(sorted)))
	prev := uint64(0)
	for _, v := range sorted {
		dst = binary.AppendUvarint(dst, v-prev)
		prev = v
	}
	return dst
}

// Read loads a sample file, auto-detecting the encoding from the magic. A
// file too short to hold the magic is text.
func Read(path string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	if isBinary(data) {
		return decodeBinary(path, data)
	}
	return parseText(path, data)
}

// isBinary reports whether data starts with the binary magic.
func isBinary(data []byte) bool {
	return len(data) >= len(binaryMagic) && [8]byte(data) == binaryMagic
}

// decodeBinary decodes a whole binary sample held in data.
func decodeBinary(path string, data []byte) ([]uint64, error) {
	enc, err := parseHeader(path, data)
	if err != nil {
		return nil, err
	}
	vals, _, err := enc.decodeAll()
	return vals, err
}

// encoded is a sample in the binary encoding whose header has been
// checked: the file's bytes, where the first value starts and how many
// values follow.
type encoded struct {
	path  string
	data  []byte
	body  int
	count uint64
	// universe, when nonzero, is the bound every value must stay below.
	universe uint64
}

// parseHeader checks the magic and the value count of a binary sample.
// Every encoded value takes at least one byte, so a count exceeding the
// bytes that follow is a corrupt header: it is rejected here, before
// anything proportional to it is allocated.
func parseHeader(path string, data []byte) (encoded, error) {
	if !isBinary(data) {
		return encoded{}, fmt.Errorf("samplefile: %s is not a binary sample file", path)
	}
	count, k := binary.Uvarint(data[len(binaryMagic):])
	if k <= 0 {
		return encoded{}, fmt.Errorf("samplefile: %s: reading count: malformed varint (corrupt file)", path)
	}
	body := len(binaryMagic) + k
	if remaining := uint64(len(data) - body); count > remaining {
		return encoded{}, fmt.Errorf("samplefile: %s: header claims %d values but only %d bytes follow (corrupt file)",
			path, count, remaining)
	}
	return encoded{path: path, data: data, body: body, count: count}, nil
}

// cursor is a resume position in a sample's value stream: the byte offset
// of the next value's varint, how many values precede it, and the last of
// them. The zero cursor is "not started".
type cursor struct {
	off  int
	n    uint64
	last uint64
}

// resume returns c if a read of the values ≥ lo may continue from it, and
// the start of the value stream otherwise: when c has not started, when
// it already consumed a value ≥ lo, or when it does not fit this encoding.
func (e *encoded) resume(c cursor, lo uint64) cursor {
	if c.off < e.body || c.off > len(e.data) || c.n > e.count || (c.n > 0 && lo <= c.last) {
		return cursor{off: e.body}
	}
	return c
}

// decodeAll decodes every value. The header check bounds the count by the
// file size, so the result is allocated up front.
func (e *encoded) decodeAll() ([]uint64, int64, error) {
	vals, _, decoded, err := e.scan(make([]uint64, 0, e.count), cursor{off: e.body}, 0, math.MaxUint64)
	if err != nil {
		return nil, decoded, err
	}
	return vals, decoded, nil
}

// estimate sizes the result of a range read of [lo, hi) from c: the
// values left after c, spread evenly over the rest of the universe, plus
// an eighth. Sample values are hashed k-mers or similar, so even spread is
// the usual case, and a short estimate costs one append growth.
func (e *encoded) estimate(c cursor, lo, hi uint64) int {
	from := uint64(0)
	if c.n > 0 {
		from = c.last + 1
	}
	if hi <= lo || lo >= e.universe {
		return 0
	}
	left := float64(e.count - c.n)
	est := left * float64(min(hi, e.universe)-lo) / float64(e.universe-from)
	return int(min(est+est/8+16, left))
}

// scan decodes the value stream from c on. Values below lo are skipped,
// values in [lo, last] are appended to dst, and the scan stops before the
// first value above last, which stays unconsumed for the next read. Every
// decoded value is validated: a well-formed varint, strictly above its
// predecessor (a zero or wrapping delta is corrupt) and inside the
// universe. Reaching the last value checks that no bytes follow it. scan
// returns dst, the advanced cursor and the number of varints decoded.
func (e *encoded) scan(dst []uint64, c cursor, lo, last uint64) ([]uint64, cursor, int64, error) {
	data := e.data
	limit := e.universe - 1 // wraps to the largest uint64 when unbounded
	off, n, prev := c.off, c.n, c.last
	var decoded int64
	for n < e.count {
		var delta uint64
		next := off
		if next < len(data) && data[next] < 0x80 {
			delta = uint64(data[next])
			next++
		} else {
			var k int
			delta, k = binary.Uvarint(data[next:])
			if k <= 0 {
				return dst, c, decoded, fmt.Errorf("samplefile: %s: value %d: truncated or overlong varint (corrupt file)", e.path, n)
			}
			next += k
		}
		decoded++
		v := prev + delta
		if n > 0 && v <= prev {
			return dst, c, decoded, fmt.Errorf("samplefile: %s: non-monotone values (corrupt file)", e.path)
		}
		if v > limit {
			return dst, c, decoded, fmt.Errorf("samplefile: %s contains value %d outside the declared universe %d", e.path, v, e.universe)
		}
		if v > last {
			break
		}
		if v >= lo {
			dst = append(dst, v)
		}
		off, n, prev = next, n+1, v
	}
	if n == e.count && off != len(data) {
		return dst, c, decoded, fmt.Errorf("samplefile: %s: %d bytes after the last of %d values (corrupt file)", e.path, len(data)-off, e.count)
	}
	return dst, cursor{off: off, n: n, last: prev}, decoded, nil
}

// rangeOf returns the sub-slice of sorted values that fall in [lo, hi).
func rangeOf(sorted []uint64, lo, hi uint64) []uint64 {
	start, _ := slices.BinarySearch(sorted, lo)
	end, _ := slices.BinarySearch(sorted, hi)
	return sorted[start:end]
}

// normalize sorts and de-duplicates values.
func normalize(values []uint64) []uint64 {
	out := append([]uint64(nil), values...)
	slices.Sort(out)
	return slices.Compact(out)
}

// DirOptions configures how OpenDirOptions exposes a directory of sample
// files as a dataset.
type DirOptions struct {
	// Pattern is the glob the sample files must match, relative to the
	// directory ("*" when empty).
	Pattern string

	// Prefetch is the read-ahead window in samples: when sample i is
	// accessed, samples (i, i+Prefetch] start loading in the background, so
	// the next block of files is read while the current block computes.
	// 0 disables prefetch and eviction: samples load on first access and
	// stay cached (the historical behavior, minus the global lock held
	// across disk reads).
	Prefetch int

	// Parallelism bounds the number of concurrent background loads
	// (prefetch and LoadRange alike). A SampleErr cache miss loads
	// directly, outside this bound; a demand for a sample the read-ahead
	// already scheduled joins that in-flight load (single-flight) and so
	// waits its turn in the background queue. 0 resolves to min(Prefetch,
	// GOMAXPROCS) when prefetching, GOMAXPROCS otherwise.
	Parallelism int

	// MaxResident bounds how many samples are held in memory at once; when
	// the bound is exceeded the least-recently-used samples are evicted
	// (and transparently reloaded if accessed again). 0 resolves to
	// 2×Prefetch — the current block plus the block being prefetched —
	// when prefetching, and to no bound otherwise. Values ≤ Prefetch are
	// raised to Prefetch+1 so the read-ahead cannot evict itself.
	MaxResident int
}

// DirDataset is a core.Dataset backed by a directory of sample files,
// one file per sample, loaded lazily. Loads are deduplicated per sample
// (single-flight) and run outside the metadata lock, so concurrent readers
// — the virtual ranks of a grid run — load different files in
// parallel instead of serializing on one mutex. Load failures are cached
// and returned from SampleErr; they propagate through the engine as run
// errors. See DirOptions for the prefetch/eviction behavior that keeps
// the resident set memory-bounded on collections far larger than RAM.
type DirDataset struct {
	names      []string
	paths      []string
	attributes uint64

	prefetch    int
	maxResident int
	sem         chan struct{} // bounds concurrent loader goroutines

	// mu guards the per-sample states, the LRU list and the counters; it is
	// never held across file I/O.
	mu      sync.Mutex
	states  []sampleState
	lruHead int // most recently used loaded sample, -1 when none
	lruTail int // least recently used loaded sample, -1 when none
	// scheduledHi is the exclusive end of the furthest prefetch window a
	// monotone scan has scheduled; accesses inside the already-scheduled
	// window skip the O(window) arm scan, keeping the cache-hit path O(1).
	scheduledHi int
	stats       core.IngestStats
}

// sampleState tracks one sample's cache entry.
type sampleState struct {
	enc    encoded  // the file in the binary encoding, header checked
	vals   []uint64 // the whole sample, once SampleErr decoded it
	err    error
	loaded bool          // enc/vals/err are valid
	gen    uint64        // counts installs, so a decode outlived by an eviction does not publish
	flight chan struct{} // non-nil while a load is in flight; closed on install

	// cur is where the last SampleRange stopped. It survives eviction: the
	// reloaded file has the same bytes, so the next batch resumes there.
	cur cursor

	// Intrusive LRU links over loaded samples (-1 = none).
	prev, next int
}

var (
	_ core.Dataset         = (*DirDataset)(nil)
	_ core.IngestStatser   = (*DirDataset)(nil)
	_ core.RangePrefetcher = (*DirDataset)(nil)
)

// OpenDir lists the sample files matching the glob pattern (e.g. "*.txt" or
// "*") under dir, in lexicographic order, and returns a lazily-loading
// dataset over the attribute universe [0, numAttributes) with prefetch and
// eviction disabled — every loaded sample stays cached. Use OpenDirOptions
// to bound memory on large collections.
func OpenDir(dir, pattern string, numAttributes uint64) (*DirDataset, error) {
	return OpenDirOptions(dir, numAttributes, DirOptions{Pattern: pattern})
}

// OpenDirOptions is OpenDir with explicit ingestion options.
func OpenDirOptions(dir string, numAttributes uint64, opts DirOptions) (*DirDataset, error) {
	if numAttributes == 0 {
		return nil, fmt.Errorf("samplefile: attribute universe must be positive")
	}
	if opts.Prefetch < 0 {
		return nil, fmt.Errorf("samplefile: Prefetch must be non-negative, got %d", opts.Prefetch)
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("samplefile: Parallelism must be non-negative, got %d", opts.Parallelism)
	}
	if opts.MaxResident < 0 {
		return nil, fmt.Errorf("samplefile: MaxResident must be non-negative, got %d", opts.MaxResident)
	}
	pattern := opts.Pattern
	if pattern == "" {
		pattern = "*"
	}
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	var files []string
	for _, m := range matches {
		info, err := os.Stat(m)
		if err != nil {
			return nil, fmt.Errorf("samplefile: %w", err)
		}
		if !info.IsDir() {
			files = append(files, m)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("samplefile: no sample files match %q in %s", pattern, dir)
	}
	sort.Strings(files)

	par := opts.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
		if opts.Prefetch > 0 && opts.Prefetch < par {
			par = opts.Prefetch
		}
	}
	budget := opts.MaxResident
	if budget == 0 && opts.Prefetch > 0 {
		budget = 2 * opts.Prefetch
	}
	if budget > 0 && budget <= opts.Prefetch {
		budget = opts.Prefetch + 1
	}

	ds := &DirDataset{
		attributes:  numAttributes,
		prefetch:    opts.Prefetch,
		maxResident: budget,
		sem:         make(chan struct{}, par),
		states:      make([]sampleState, len(files)),
		lruHead:     -1,
		lruTail:     -1,
	}
	for i := range ds.states {
		ds.states[i].prev = -1
		ds.states[i].next = -1
	}
	for _, f := range files {
		ds.paths = append(ds.paths, f)
		name := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		ds.names = append(ds.names, name)
	}
	return ds, nil
}

// NumSamples implements core.Dataset.
func (d *DirDataset) NumSamples() int { return len(d.paths) }

// NumAttributes implements core.Dataset.
func (d *DirDataset) NumAttributes() uint64 { return d.attributes }

// SampleName implements core.Dataset.
func (d *DirDataset) SampleName(i int) string { return d.names[i] }

// SampleErr implements core.Dataset: it returns sample i, loading (or
// reloading, after an eviction) the backing file if needed and decoding
// it whole. The decoded sample is kept with the entry until it is evicted,
// so repeated whole-sample reads decode once. Concurrent calls for the
// same sample share one load; calls for different samples load in
// parallel. A failure — unreadable file, corrupt encoding, or a value
// outside the declared universe — is cached and returned as an error until
// the entry is evicted (see Evict), never panicking.
func (d *DirDataset) SampleErr(i int) ([]uint64, error) {
	snap, err := d.acquire(i)
	if err != nil || snap.vals != nil {
		return snap.vals, err
	}
	vals, decoded, err := snap.enc.decodeAll()
	d.mu.Lock()
	d.stats.ValuesDecoded += decoded
	if st := &d.states[i]; st.loaded && st.gen == snap.gen {
		st.vals, st.err = vals, err
	}
	d.mu.Unlock()
	return vals, err
}

// SampleRange implements core.Dataset: it returns the values of sample i
// in [lo, hi) in a new slice, so a batch holds no reference into the
// cache. The values are decoded from where the previous range read of the
// sample stopped, so a scan through ascending batch ranges decodes each
// value once (plus, per read, the one value that ends it). A read below that point restarts from the file's first
// value. Body corruption — a malformed varint, a non-increasing value, a
// value outside the universe, bytes after the last value — is reported
// by the read that reaches it and cached like a load error. When SampleErr
// has decoded the sample and it is still resident, the range is cut from
// that instead.
func (d *DirDataset) SampleRange(i int, lo, hi uint64) ([]uint64, error) {
	snap, err := d.acquire(i)
	if err != nil || lo >= hi {
		return nil, err
	}
	if snap.vals != nil {
		return slices.Clone(rangeOf(snap.vals, lo, hi)), nil
	}
	enc := &snap.enc
	c := enc.resume(snap.cur, lo)
	vals, c, decoded, err := enc.scan(make([]uint64, 0, enc.estimate(c, lo, hi)), c, lo, hi-1)
	d.mu.Lock()
	d.stats.ValuesDecoded += decoded
	st := &d.states[i]
	if err == nil {
		st.cur = c
	} else if st.loaded && st.gen == snap.gen {
		st.err = err
	}
	d.mu.Unlock()
	return vals, err
}

// snapshot is what acquire reads from a loaded cache entry.
type snapshot struct {
	enc  encoded
	vals []uint64
	cur  cursor
	gen  uint64
}

// acquire returns sample i's cache entry, loading (or reloading, after an
// eviction) the backing file if needed, and schedules the read-ahead
// after i. The error is the entry's cached failure.
func (d *DirDataset) acquire(i int) (snapshot, error) {
	if i < 0 || i >= len(d.paths) {
		return snapshot{}, fmt.Errorf("samplefile: sample index %d out of range [0, %d)", i, len(d.paths))
	}
	for {
		d.mu.Lock()
		st := &d.states[i]
		if st.loaded {
			d.lruTouch(i)
			snap, err := snapshot{enc: st.enc, vals: st.vals, cur: st.cur, gen: st.gen}, st.err
			d.mu.Unlock()
			d.prefetchAfter(i)
			return snap, err
		}
		if st.flight != nil {
			ch := st.flight
			d.mu.Unlock()
			<-ch
			continue
		}
		d.armLocked(i)
		d.mu.Unlock()

		// Read ahead of this position while we load sample i ourselves.
		d.prefetchAfter(i)
		return d.loadAndInstall(i)
	}
}

// LoadRange eagerly loads samples [lo, hi) across the parallel loaders
// and waits for them, returning the first load error. On a memory-bounded dataset the range is clamped to the resident
// budget — LoadRange is a prefetch hint, not a pin, so asking for more
// than fits would only evict what it just loaded.
func (d *DirDataset) LoadRange(lo, hi int) error {
	lo, hi = d.clampRange(lo, hi)
	if lo >= hi {
		return nil
	}
	d.mu.Lock()
	pending := make([]int, 0, hi-lo)
	for j := lo; j < hi; j++ {
		st := &d.states[j]
		if st.loaded {
			continue
		}
		if st.flight == nil {
			d.armLocked(j)
			go d.loadAsync(j)
		}
		pending = append(pending, j)
	}
	d.mu.Unlock()

	var firstErr error
	for _, j := range pending {
		for {
			d.mu.Lock()
			st := &d.states[j]
			if st.loaded {
				if st.err != nil && firstErr == nil {
					firstErr = st.err
				}
				d.mu.Unlock()
				break
			}
			ch := st.flight
			d.mu.Unlock()
			if ch == nil {
				// Loaded and already evicted between our checks; it was
				// available, which is all a prefetch hint promises.
				break
			}
			<-ch
		}
	}
	return firstErr
}

// Evict drops the cached contents of sample i — file bytes, decoded values
// or a cached error alike — so that memory can be reclaimed (or a failed
// load retried) explicitly. Samples evicted automatically by the resident
// bound behave identically: the next access reloads the file. Where the
// last range read stopped is kept.
func (d *DirDataset) Evict(i int) {
	d.mu.Lock()
	if d.states[i].loaded {
		d.evictLocked(i)
	}
	d.mu.Unlock()
}

// IngestStats implements core.IngestStatser; the engine snapshots these
// counters into RunStats.Ingest at the end of a run.
func (d *DirDataset) IngestStats() core.IngestStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// load reads the backing file of sample i and checks its header; a text
// file is parsed, checked against the universe and re-encoded in the
// binary form, so every sample is decoded by the same code. It returns the
// number of bytes read from disk too. It runs without holding d.mu, so
// loads for different samples proceed in parallel.
func (d *DirDataset) load(i int) (encoded, int64, error) {
	path := d.paths[i]
	data, err := os.ReadFile(path)
	if err != nil {
		return encoded{}, 0, fmt.Errorf("samplefile: %w", err)
	}
	read := int64(len(data))
	if !isBinary(data) {
		vals, err := parseText(path, data)
		if err != nil {
			return encoded{}, read, err
		}
		if len(vals) > 0 && vals[len(vals)-1] >= d.attributes {
			return encoded{}, read, fmt.Errorf("samplefile: %s contains value %d outside the declared universe %d",
				path, vals[len(vals)-1], d.attributes)
		}
		data = appendBinary(nil, vals)
	}
	enc, err := parseHeader(path, data)
	enc.universe = d.attributes
	return enc, read, err
}

// loadAndInstall loads sample i, whose flight channel is armed, and
// installs and returns the result.
func (d *DirDataset) loadAndInstall(i int) (snapshot, error) {
	start := time.Now()
	enc, read, err := d.load(i)
	return d.install(i, enc, read, err, time.Since(start).Seconds())
}

// loadAsync is the background-loader body: it performs the load for a
// sample whose flight channel the scheduler already armed, bounded by the
// parallelism semaphore. The result, a failure included, is installed in
// the entry, where the sample's readers find it.
func (d *DirDataset) loadAsync(j int) {
	d.sem <- struct{}{}
	defer func() { <-d.sem }()
	_, _ = d.loadAndInstall(j)
}

// armLocked reserves the cache slot for a load of sample i that is about
// to start: it creates the flight channel waiters block on and counts the
// sample against the resident budget immediately — an in-flight load holds
// the sample's bytes before it installs, so reserving at arm time keeps
// PeakResident an honest bound on simultaneously held samples (cached and
// in flight alike) and evicts ahead of the load instead of after it.
// d.mu must be held; armed entries are not in the LRU list and therefore
// cannot be evicted before they install. Background arms respect the
// budget (see armRangeLocked), so the bound can be exceeded only by
// concurrent demand loads — at most one per concurrent reader.
func (d *DirDataset) armLocked(i int) {
	d.states[i].flight = make(chan struct{})
	d.stats.Resident++
	if d.maxResident > 0 {
		for d.stats.Resident > d.maxResident && d.lruTail != -1 {
			d.evictLocked(d.lruTail)
		}
	}
	if d.stats.Resident > d.stats.PeakResident {
		d.stats.PeakResident = d.stats.Resident
	}
}

// install publishes a finished load: it stores the result, wakes the
// waiters and moves the sample from its armed reservation (see armLocked)
// into the LRU list.
func (d *DirDataset) install(i int, enc encoded, read int64, err error, seconds float64) (snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &d.states[i]
	st.enc, st.vals, st.err, st.loaded = enc, nil, err, true
	st.gen++
	close(st.flight)
	st.flight = nil
	d.lruPushFront(i)
	d.stats.Loads++
	d.stats.BytesRead += read
	d.stats.LoadSeconds += seconds
	return snapshot{enc: enc, cur: st.cur, gen: st.gen}, err
}

// armRangeLocked schedules background loads for every sample in [lo, hi)
// that is neither cached nor already in flight; d.mu must be held. Unlike
// a demand load — which must always proceed — background scheduling stops
// when the budget is exhausted by in-flight loads with nothing left to
// evict, so concurrent arm sources (per-rank prefetch windows, the
// engine's batch-restart hint) cannot stack reservations past the bound.
func (d *DirDataset) armRangeLocked(lo, hi int) {
	for j := lo; j < hi; j++ {
		st := &d.states[j]
		if st.loaded || st.flight != nil {
			continue
		}
		if d.maxResident > 0 && d.stats.Resident >= d.maxResident && d.lruTail == -1 {
			return
		}
		d.armLocked(j)
		go d.loadAsync(j)
	}
}

// prefetchAfter schedules background loads for the window following sample
// i, so the next block of files is read while the caller computes on the
// current one. A monotone scan advances the scheduled frontier by one
// sample per access, and accesses inside the already-scheduled window
// return after an O(1) check — the cache-hit path does not rescan the
// window under the lock. A jump far behind the frontier (the next batch
// restarting the scan, a different rank's position) resets it.
func (d *DirDataset) prefetchAfter(i int) {
	if d.prefetch <= 0 {
		return
	}
	hi := i + d.prefetch // inclusive end of the window
	if hi >= len(d.paths) {
		hi = len(d.paths) - 1
	}
	if hi < i+1 {
		return
	}
	d.mu.Lock()
	switch {
	case hi >= d.scheduledHi:
		// At or ahead of the frontier: extend it, arming only the samples
		// no earlier access already scheduled.
		lo := i + 1
		if lo < d.scheduledHi {
			lo = d.scheduledHi
		}
		d.armRangeLocked(lo, hi+1)
		d.scheduledHi = hi + 1
	case i < d.scheduledHi-2*d.prefetch:
		// Far behind the frontier: the scan restarted, and what this
		// window needs has likely been evicted. Re-arm it and move the
		// frontier back.
		d.armRangeLocked(i+1, hi+1)
		d.scheduledHi = hi + 1
		// Otherwise the access is inside the scheduled window: nothing to
		// arm, and the lock was held O(1).
	}
	d.mu.Unlock()
}

// PrefetchRange implements core.RangePrefetcher: it schedules background
// loads of [lo, hi) — clamped to the resident budget like LoadRange — and
// returns immediately. Errors surface later, from SampleErr or LoadRange.
func (d *DirDataset) PrefetchRange(lo, hi int) {
	lo, hi = d.clampRange(lo, hi)
	if lo >= hi {
		return
	}
	d.mu.Lock()
	d.armRangeLocked(lo, hi)
	d.mu.Unlock()
}

// clampRange bounds a requested sample range to the collection and — on a
// memory-bounded dataset — to the resident budget, the shared policy of
// the LoadRange and PrefetchRange hints.
func (d *DirDataset) clampRange(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(d.paths) {
		hi = len(d.paths)
	}
	if d.maxResident > 0 && hi-lo > d.maxResident {
		hi = lo + d.maxResident
	}
	return lo, hi
}

// evictLocked removes sample i from the cache; d.mu must be held.
func (d *DirDataset) evictLocked(i int) {
	st := &d.states[i]
	st.enc, st.vals, st.err, st.loaded = encoded{}, nil, nil, false
	d.lruRemove(i)
	d.stats.Resident--
	d.stats.Evictions++
}

// lruPushFront inserts loaded sample i at the most-recently-used end;
// d.mu must be held.
func (d *DirDataset) lruPushFront(i int) {
	st := &d.states[i]
	st.prev = -1
	st.next = d.lruHead
	if d.lruHead != -1 {
		d.states[d.lruHead].prev = i
	}
	d.lruHead = i
	if d.lruTail == -1 {
		d.lruTail = i
	}
}

// lruRemove unlinks sample i from the LRU list; d.mu must be held.
func (d *DirDataset) lruRemove(i int) {
	st := &d.states[i]
	if st.prev != -1 {
		d.states[st.prev].next = st.next
	} else if d.lruHead == i {
		d.lruHead = st.next
	}
	if st.next != -1 {
		d.states[st.next].prev = st.prev
	} else if d.lruTail == i {
		d.lruTail = st.prev
	}
	st.prev, st.next = -1, -1
}

// lruTouch moves loaded sample i to the most-recently-used end; d.mu must
// be held.
func (d *DirDataset) lruTouch(i int) {
	if d.lruHead == i {
		return
	}
	d.lruRemove(i)
	d.lruPushFront(i)
}
