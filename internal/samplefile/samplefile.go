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
// DirDataset exposes a directory of such files as a core.DatasetV2: samples
// load lazily — in parallel, with per-sample single-flight deduplication —
// and load failures (unreadable files, corrupt encodings, values outside
// the declared universe) propagate as errors through the pipelines instead
// of panicking. With a prefetch window configured, the loader reads the
// next block of samples while the current block computes and evicts
// least-recently-used samples so the resident set stays bounded by about
// two blocks, no matter how many files the collection holds.
package samplefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// ReadText reads a text sample file. Blank lines and '#' comments are
// ignored; values are sorted and de-duplicated on return.
func ReadText(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	defer f.Close()
	var out []uint64
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1024*1024), 256*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("samplefile: %s:%d: %w", path, lineNo, err)
		}
		out = append(out, v)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	return normalize(out), nil
}

// WriteBinary writes a sample in the compact binary encoding: the magic,
// the value count, and the sorted values as varint deltas. Like WriteText
// it reports close failures, which is where a full disk surfaces.
func WriteBinary(path string, values []uint64) (err error) {
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
	if _, err := w.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(cleaned)))
	if _, err := w.Write(buf[:n]); err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	prev := uint64(0)
	for i, v := range cleaned {
		delta := v
		if i > 0 {
			delta = v - prev
		}
		prev = v
		n := binary.PutUvarint(buf[:], delta)
		if _, err := w.Write(buf[:n]); err != nil {
			return fmt.Errorf("samplefile: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("samplefile: %w", err)
	}
	return nil
}

// maxPrealloc caps how many values ReadBinary preallocates from the
// untrusted header count (1<<20 entries = 8 MiB); larger samples grow by
// appending, so a corrupt header cannot OOM the process.
const maxPrealloc = 1 << 20

// ReadBinary reads a binary sample file written by WriteBinary.
func ReadBinary(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	r := bufio.NewReader(f)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("samplefile: %s: reading magic: %w", path, err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("samplefile: %s is not a binary sample file", path)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("samplefile: %s: reading count: %w", path, err)
	}
	// Every encoded value takes at least one byte, so a count exceeding the
	// bytes left in the file is a corrupt header — reject it before
	// allocating anything proportional to it.
	if remaining := info.Size() - int64(len(magic)); int64(count) < 0 || int64(count) > remaining {
		return nil, fmt.Errorf("samplefile: %s: header claims %d values but only %d bytes follow (corrupt file)",
			path, count, remaining)
	}
	prealloc := count
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	out := make([]uint64, 0, prealloc)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("samplefile: %s: value %d: %w", path, i, err)
		}
		v := delta
		if i > 0 {
			v = prev + delta
		}
		// The encoding holds sorted de-duplicated values, so every delta
		// after the first value is at least 1: a wrapped (v < prev) or
		// zero delta (v == prev) is a corrupt file.
		if i > 0 && v <= prev {
			return nil, fmt.Errorf("samplefile: %s: non-monotone values (corrupt file)", path)
		}
		out = append(out, v)
		prev = v
	}
	return out, nil
}

// Read loads a sample file, auto-detecting the encoding from the magic. A
// file too short to hold the magic is treated as text; any other read
// failure during sniffing propagates instead of silently misdetecting the
// encoding.
func Read(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("samplefile: %w", err)
	}
	var magic [8]byte
	_, err = io.ReadFull(f, magic[:])
	f.Close()
	switch {
	case err == nil:
		if magic == binaryMagic {
			return ReadBinary(path)
		}
		return ReadText(path)
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		// Shorter than the magic: cannot be binary.
		return ReadText(path)
	default:
		return nil, fmt.Errorf("samplefile: %s: sniffing encoding: %w", path, err)
	}
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

// DirDataset is a core.DatasetV2 backed by a directory of sample files,
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
	vals   []uint64
	err    error
	loaded bool          // vals/err are valid
	flight chan struct{} // non-nil while a load is in flight; closed on install

	// Intrusive LRU links over loaded samples (-1 = none).
	prev, next int
}

var (
	_ core.DatasetV2       = (*DirDataset)(nil)
	_ core.IngestStatser   = (*DirDataset)(nil)
	_ core.RangePrefetcher = (*DirDataset)(nil)
	_ core.EvictingDataset = (*DirDataset)(nil)
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

// Path returns the backing file of sample i.
func (d *DirDataset) Path(i int) string { return d.paths[i] }

// SampleErr implements core.DatasetV2: it returns sample i, loading (or
// reloading, after an eviction) the backing file if needed. Concurrent
// calls for the same sample share one load; calls for different samples
// load in parallel. A failed load — unreadable file, corrupt encoding, or
// a value outside the declared universe — is cached and returned as an
// error until the entry is evicted (see Evict), never panicking.
func (d *DirDataset) SampleErr(i int) ([]uint64, error) {
	if i < 0 || i >= len(d.paths) {
		return nil, fmt.Errorf("samplefile: sample index %d out of range [0, %d)", i, len(d.paths))
	}
	for {
		d.mu.Lock()
		st := &d.states[i]
		if st.loaded {
			d.lruTouch(i)
			vals, err := st.vals, st.err
			d.mu.Unlock()
			d.prefetchAfter(i)
			return vals, err
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
		start := time.Now()
		vals, err := d.load(i)
		d.install(i, vals, err, time.Since(start).Seconds())
		return vals, err
	}
}

// Sample implements the legacy core.Dataset contract, which has no error
// channel: a load failure panics. The execution pipelines never call it —
// they go through SampleErr — so the panic can only reach callers using
// the legacy interface directly.
func (d *DirDataset) Sample(i int) []uint64 {
	vals, err := d.SampleErr(i)
	if err != nil {
		//gas:invariant documented legacy interface contract: execution pipelines use SampleErr; the panic can only reach direct legacy callers
		panic(fmt.Sprintf("samplefile: %v (use SampleErr for error propagation)", err))
	}
	return vals
}

// LoadRange implements core.DatasetV2: it eagerly loads samples [lo, hi)
// across the parallel loaders and waits for them, returning the first load
// error. On a memory-bounded dataset the range is clamped to the resident
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

// Evict drops the cached contents of sample i — values or a cached load
// error alike — so that memory can be reclaimed (or a failed load retried)
// explicitly. Samples evicted automatically by the resident bound behave
// identically: the next access reloads the file.
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

// MaxValue returns the largest attribute value across all samples (loading
// them if needed); useful for choosing the universe size when it is not
// known a priori. The scan honors the prefetch window and resident bound
// like any other sequential pass.
func (d *DirDataset) MaxValue() (uint64, error) {
	var m uint64
	for i := range d.paths {
		s, err := d.SampleErr(i)
		if err != nil {
			return 0, err
		}
		if len(s) > 0 && s[len(s)-1] > m {
			m = s[len(s)-1]
		}
	}
	return m, nil
}

// load reads and validates the backing file of sample i. It runs without
// holding d.mu, so loads for different samples proceed in parallel.
func (d *DirDataset) load(i int) ([]uint64, error) {
	values, err := Read(d.paths[i])
	if err != nil {
		return nil, err
	}
	for _, v := range values {
		if v >= d.attributes {
			return nil, fmt.Errorf("samplefile: %s contains value %d outside the declared universe %d",
				d.paths[i], v, d.attributes)
		}
	}
	if values == nil {
		values = []uint64{}
	}
	return values, nil
}

// loadAsync is the background-loader body: it performs the load for a
// sample whose flight channel the scheduler already armed, bounded by the
// parallelism semaphore.
func (d *DirDataset) loadAsync(j int) {
	d.sem <- struct{}{}
	start := time.Now()
	vals, err := d.load(j)
	elapsed := time.Since(start).Seconds()
	<-d.sem
	d.install(j, vals, err, elapsed)
}

// armLocked reserves the cache slot for a load of sample i that is about
// to start: it creates the flight channel waiters block on and counts the
// sample against the resident budget immediately — an in-flight load holds
// a decoded sample before it installs, so reserving at arm time keeps
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
func (d *DirDataset) install(i int, vals []uint64, err error, seconds float64) {
	d.mu.Lock()
	st := &d.states[i]
	st.vals, st.err, st.loaded = vals, err, true
	close(st.flight)
	st.flight = nil
	d.lruPushFront(i)
	d.stats.Loads++
	d.stats.LoadSeconds += seconds
	d.mu.Unlock()
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

// EvictsSamples implements core.EvictingDataset: when the resident bound
// is active, sample slices can be evicted mid-run, so the batch stage must
// copy the ranges it keeps instead of pinning whole backing arrays.
func (d *DirDataset) EvictsSamples() bool { return d.maxResident > 0 }

// evictLocked removes sample i from the cache; d.mu must be held.
func (d *DirDataset) evictLocked(i int) {
	st := &d.states[i]
	st.vals, st.err, st.loaded = nil, nil, false
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
