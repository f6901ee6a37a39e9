package samplefile

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/tile"
)

// writeSampleDir writes n deterministic samples into dir, alternating text
// and binary encodings, and returns the raw value sets.
func writeSampleDir(t *testing.T, dir string, n int, m uint64) [][]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(m)))
	samples := make([][]uint64, n)
	for i := 0; i < n; i++ {
		var vals []uint64
		for v := uint64(0); v < m; v++ {
			if rng.Float64() < 0.07 {
				vals = append(vals, v)
			}
		}
		samples[i] = vals
		path := filepath.Join(dir, fmt.Sprintf("s-%03d.txt", i))
		write := WriteText
		if i%2 == 1 {
			path = filepath.Join(dir, fmt.Sprintf("s-%03d.smp", i))
			write = WriteBinary
		}
		if err := write(path, vals); err != nil {
			t.Fatal(err)
		}
	}
	return samples
}

func TestSampleErrCorruptAndUnreadable(t *testing.T) {
	dir := t.TempDir()
	WriteText(filepath.Join(dir, "a.txt"), []uint64{1, 2})
	// Truncated binary: valid magic, header promising values that are not
	// there.
	os.WriteFile(filepath.Join(dir, "b.smp"),
		append(append([]byte{}, binaryMagic[:]...), 0x05), 0o644)
	// Garbage text.
	os.WriteFile(filepath.Join(dir, "c.txt"), []byte("12\nnot-a-number\n"), 0o644)
	// d.txt exists at open time but vanishes before it is read.
	gone := filepath.Join(dir, "d.txt")
	WriteText(gone, []uint64{3})

	ds, err := OpenDir(dir, "*", 100)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(gone)

	if vals, err := ds.SampleErr(0); err != nil || len(vals) != 2 {
		t.Errorf("healthy sample: %v, %v", vals, err)
	}
	if _, err := ds.SampleErr(1); err == nil || !strings.Contains(err.Error(), "b.smp") {
		t.Errorf("truncated binary: err = %v, want error naming the file", err)
	}
	if _, err := ds.SampleErr(2); err == nil {
		t.Error("garbage text should error")
	}
	if _, err := ds.SampleErr(3); err == nil {
		t.Error("vanished file should error")
	}
	if _, err := ds.SampleErr(99); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestSampleErrCachesErrorUntilEvicted(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "a.smp")
	os.WriteFile(bad, append(append([]byte{}, binaryMagic[:]...), 0x05), 0o644)
	ds, err := OpenDir(dir, "*", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.SampleErr(0); err == nil {
		t.Fatal("corrupt file should error")
	}
	// Repair the file: the cached error still answers until evicted...
	if err := WriteBinary(bad, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.SampleErr(0); err == nil {
		t.Error("error should be cached until eviction")
	}
	if got := ds.IngestStats().Loads; got != 1 {
		t.Errorf("Loads = %d, want 1 (error cached, not retried)", got)
	}
	// ...and eviction retries the load.
	ds.Evict(0)
	if vals, err := ds.SampleErr(0); err != nil || len(vals) != 1 || vals[0] != 7 {
		t.Errorf("after Evict: %v, %v", vals, err)
	}
}

// TestConcurrentSampleErrSingleFlight hammers every sample from many
// goroutines (run with -race): each file must be loaded exactly once and
// every reader must see the same correct values.
func TestConcurrentSampleErrSingleFlight(t *testing.T) {
	dir := t.TempDir()
	const n = 24
	want := writeSampleDir(t, dir, n, 500)
	ds, err := OpenDir(dir, "*", 500)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < n; i++ {
					vals, err := ds.SampleErr(i)
					if err != nil {
						errs[r] = err
						return
					}
					if len(vals) != len(want[i]) {
						errs[r] = fmt.Errorf("sample %d: %d values, want %d", i, len(vals), len(want[i]))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ds.IngestStats().Loads; got != n {
		t.Errorf("Loads = %d, want %d (single-flight must dedup concurrent loads)", got, n)
	}
}

// TestConcurrentPrefetchRace exercises the prefetching, evicting loader
// from concurrent readers (run with -race).
func TestConcurrentPrefetchRace(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	want := writeSampleDir(t, dir, n, 300)
	ds, err := OpenDirOptions(dir, 300, DirOptions{Prefetch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r % 3; i < n; i++ {
				vals, err := ds.SampleErr(i)
				if err != nil {
					t.Errorf("sample %d: %v", i, err)
					return
				}
				if len(vals) != len(want[i]) {
					t.Errorf("sample %d: %d values, want %d", i, len(vals), len(want[i]))
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestPrefetchEvictionBound is the memory-bound acceptance check: a full
// multi-batch pipeline run over a prefetching DirDataset must never hold
// more than two prefetch windows of samples resident, and must still agree
// exactly with the fully in-memory run.
func TestPrefetchEvictionBound(t *testing.T) {
	dir := t.TempDir()
	const n, m = 30, 400
	const window = 3
	raw := writeSampleDir(t, dir, n, m)
	ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: window})
	if err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.BatchCount = 3
	res, err := similarity(ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.Ingest == nil {
		t.Fatal("run over a DirDataset must carry ingestion stats")
	}
	ing := *res.Stats.Ingest
	if ing.PeakResident > 2*window {
		t.Errorf("peak resident = %d samples, want <= 2x window = %d", ing.PeakResident, 2*window)
	}
	if ing.Loads < int64(n) {
		t.Errorf("Loads = %d, want >= %d", ing.Loads, n)
	}
	if ing.Evictions == 0 {
		t.Error("a bounded multi-batch scan of 30 samples must evict")
	}

	mem, err := core.NewInMemoryDataset(nil, raw, m)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := similarity(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if res.Similarity(i, j) != memRes.Similarity(i, j) {
				t.Fatalf("S(%d,%d): out-of-core %v != in-memory %v", i, j,
					res.Similarity(i, j), memRes.Similarity(i, j))
			}
		}
	}

	// The distributed path adds concurrent demand loads — at most one per
	// rank — on top of the budget; background arms stay within it.
	const procs = 4
	dds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: window})
	if err != nil {
		t.Fatal(err)
	}
	dopts := opts
	dopts.Procs = procs
	dres, err := similarity(dds, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if peak := dres.Stats.Ingest.PeakResident; peak > 2*window+procs {
		t.Errorf("distributed peak resident = %d, want <= 2x window + procs = %d", peak, 2*window+procs)
	}
}

// TestDirDatasetMatchesInMemory cross-checks the out-of-core loader
// against the in-memory dataset across prefetch windows and both execution
// paths.
func TestDirDatasetMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	const n, m = 18, 250
	raw := writeSampleDir(t, dir, n, m)
	mem, err := core.NewInMemoryDataset(nil, raw, m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := similarity(mem, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, prefetch := range []int{0, 2, 16} {
		for _, procs := range []int{1, 3} {
			ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: prefetch})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Procs = procs
			opts.BatchCount = 2
			res, err := similarity(ds, opts)
			if err != nil {
				t.Fatalf("prefetch=%d procs=%d: %v", prefetch, procs, err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if res.Similarity(i, j) != ref.Similarity(i, j) {
						t.Fatalf("prefetch=%d procs=%d: S(%d,%d) mismatch", prefetch, procs, i, j)
					}
				}
			}
		}
	}
}

// TestEngineErrorsOnCorruptFile is the fault-tolerance acceptance check:
// a corrupt file inside a large directory surfaces from Engine.Similarity
// and Engine.Stream as a run error naming the file, on the sequential and
// the distributed path alike — never as a panic.
func TestEngineErrorsOnCorruptFile(t *testing.T) {
	dir := t.TempDir()
	const n, m = 12, 200
	writeSampleDir(t, dir, n, m)
	// Corrupt one mid-collection binary file in place.
	bad := filepath.Join(dir, "s-007.smp")
	if err := os.WriteFile(bad, append(append([]byte{}, binaryMagic[:]...), 0xff, 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		for _, mode := range []string{"similarity", "stream"} {
			ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: 2})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Procs = procs
			opts.BatchCount = 2
			e, err := core.NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			var res *core.Result
			if mode == "stream" {
				res, err = e.Stream(nil, ds, tile.Discard)
			} else {
				res, err = e.Similarity(nil, ds)
			}
			if err == nil {
				t.Fatalf("procs=%d %s: corrupt file must fail the run", procs, mode)
			}
			if res != nil {
				t.Errorf("procs=%d %s: failed run must not return a result", procs, mode)
			}
			if !strings.Contains(err.Error(), "s-007.smp") {
				t.Errorf("procs=%d %s: error should name the corrupt file, got: %v", procs, mode, err)
			}
		}
	}
}

func TestLoadRange(t *testing.T) {
	dir := t.TempDir()
	const n, m = 20, 100
	writeSampleDir(t, dir, n, m)

	// Unbounded: the whole range loads eagerly, once.
	ds, err := OpenDir(dir, "*", m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.LoadRange(0, n); err != nil {
		t.Fatal(err)
	}
	if got := ds.IngestStats().Resident; got != n {
		t.Errorf("resident after LoadRange = %d, want %d", got, n)
	}
	if err := ds.LoadRange(0, n); err != nil {
		t.Fatal(err)
	}
	if got := ds.IngestStats().Loads; got != n {
		t.Errorf("Loads = %d, want %d (second LoadRange must be a no-op)", got, n)
	}

	// Bounded: the hint clamps to the resident budget instead of evicting
	// what it just loaded.
	bounded, err := OpenDirOptions(dir, m, DirOptions{Prefetch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := bounded.LoadRange(0, n); err != nil {
		t.Fatal(err)
	}
	if got := bounded.IngestStats().Resident; got > 6 {
		t.Errorf("bounded LoadRange left %d resident, want <= 6", got)
	}

	// Errors inside the range propagate.
	os.WriteFile(filepath.Join(dir, "s-002.txt"), []byte("bogus\n"), 0o644)
	ds2, err := OpenDir(dir, "*", m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.LoadRange(0, n); err == nil {
		t.Error("LoadRange over a corrupt file should report the error")
	}
}

// similarity runs the pipeline once over ds and gathers the result.
func similarity(ds core.Dataset, opts core.Options) (*core.Result, error) {
	e, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.Similarity(context.Background(), ds)
}
