package samplefile

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"genomeatscale/internal/core"
	"genomeatscale/internal/synth"
)

var rangeSeed = flag.Int64("samplerange.seed", 0, "run TestSampleRangeMatchesSlice for this seed only (as printed by a failure)")

// inRange is the oracle of a range read: the values of sorted in [lo, hi),
// by a linear filter.
func inRange(sorted []uint64, lo, hi uint64) []uint64 {
	var out []uint64
	for _, v := range sorted {
		if v >= lo && v < hi {
			out = append(out, v)
		}
	}
	return out
}

// randomCuts returns a random partition of [0, m) into at most k ranges,
// as ascending bounds from 0 to m.
func randomCuts(rng *rand.Rand, m uint64, k int) []uint64 {
	cuts := []uint64{0, m}
	for len(cuts) < k+1 {
		cuts = append(cuts, rng.Uint64()%m)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// rangeSamples draws samples over [0, m) whose deltas span every varint
// length the universe allows, plus the edge samples: empty, one value, 0
// alone, m−1 alone, and {0, m−1}.
func rangeSamples(rng *rand.Rand, m uint64) [][]uint64 {
	samples := [][]uint64{{}, {rng.Uint64() % m}, {0}, {m - 1}, {0, m - 1}}
	for s := 0; s < 7; s++ {
		var vals []uint64
		v := rng.Uint64() % 4
		for len(vals) < 40+rng.Intn(200) && v < m {
			vals = append(vals, v)
			// A delta of 7·b random bits is a varint of about b bytes.
			bits := 7 * (1 + rng.Intn(10))
			step := uint64(1)
			if bits < 64 {
				step += rng.Uint64() % (uint64(1) << bits)
			} else {
				step += rng.Uint64() >> 1
			}
			if v+step < v {
				break
			}
			v += step
		}
		samples = append(samples, vals)
	}
	return samples
}

// TestSampleRangeMatchesSlice is the differential check of the resuming
// range decoder: every SampleRange must equal the oracle's filter of the
// whole file (Read), over random partitions of the universe, with
// evictions between batches, repeated scans, reads below the cursor,
// whole-sample reads mixed in, and concurrent readers (run with -race). A
// failure names its seed; re-run it alone with -samplerange.seed.
func TestSampleRangeMatchesSlice(t *testing.T) {
	if *rangeSeed != 0 {
		if err := sampleRangeCase(t, *rangeSeed); err != nil {
			t.Fatalf("seed %d: %v", *rangeSeed, err)
		}
		return
	}
	base := time.Now().UnixNano() % 1_000_000
	t.Logf("seeds %d..%d", base, base+11)
	for k := int64(0); k < 12; k++ {
		seed := base + k
		if err := sampleRangeCase(t, seed); err != nil {
			t.Fatalf("seed %d: %v (re-run with -samplerange.seed %d)", seed, err, seed)
		}
	}
}

func sampleRangeCase(t *testing.T, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	universes := []uint64{1, 2, 1000, 1 << 40, math.MaxUint64}
	m := universes[rng.Intn(len(universes))]
	dir := t.TempDir()
	samples := rangeSamples(rng, m)
	want := make([][]uint64, len(samples))
	for i, s := range samples {
		path := filepath.Join(dir, fmt.Sprintf("s-%02d.smp", i))
		if err := WriteBinary(path, s); err != nil {
			return err
		}
		vals, err := Read(path)
		if err != nil {
			return err
		}
		want[i] = vals
	}
	ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: rng.Intn(3)})
	if err != nil {
		return err
	}
	n := ds.NumSamples()

	// check reads one range of sample i and compares it with the oracle.
	check := func(i int, lo, hi uint64) error {
		got, err := ds.SampleRange(i, lo, hi)
		if err != nil {
			return fmt.Errorf("sample %d [%d, %d): %v", i, lo, hi, err)
		}
		if w := inRange(want[i], lo, hi); !slices.Equal(got, w) {
			return fmt.Errorf("sample %d [%d, %d): got %d values %v, want %d values %v", i, lo, hi, len(got), got, len(w), w)
		}
		return nil
	}
	// scan reads sample i through the partition cuts, with the
	// disturbances the seed picks between batches.
	scan := func(i int, cuts []uint64, r *rand.Rand) error {
		for b := 0; b+1 < len(cuts); b++ {
			switch r.Intn(8) {
			case 0:
				ds.Evict(i)
			case 1:
				// A read below the cursor restarts from the header.
				lo := r.Uint64() % cuts[b+1]
				if err := check(i, lo, lo+1+r.Uint64()%(m-lo)); err != nil {
					return err
				}
			case 2:
				// A whole-sample read memoises the decode; ranges are then
				// cut from it.
				vals, err := ds.SampleErr(i)
				if err != nil {
					return err
				}
				if !slices.Equal(vals, want[i]) {
					return fmt.Errorf("sample %d: SampleErr = %v, want %v", i, vals, want[i])
				}
			}
			if err := check(i, cuts[b], cuts[b+1]); err != nil {
				return err
			}
		}
		return nil
	}

	// Two sequential runs over one partition each: the second restarts
	// every cursor.
	for run := 0; run < 2; run++ {
		cuts := randomCuts(rng, m, 1+rng.Intn(12))
		for i := 0; i < n; i++ {
			if err := scan(i, cuts, rng); err != nil {
				return fmt.Errorf("run %d: %w", run, err)
			}
		}
	}

	// Concurrent ranks: each owns the samples ≡ rank (mod ranks), and two
	// extra readers share sample 0 with its owner.
	const ranks = 4
	cuts := randomCuts(rng, m, 1+rng.Intn(12))
	errs := make([]error, ranks+2)
	var wg sync.WaitGroup
	for r := 0; r < ranks+2; r++ {
		wg.Add(1)
		go func(r int, r2 *rand.Rand) {
			defer wg.Done()
			for i := r % ranks; i < n; i += ranks {
				if err := scan(i, cuts, r2); err != nil {
					errs[r] = err
					return
				}
				if r >= ranks {
					return
				}
			}
		}(r, rand.New(rand.NewSource(seed*31+int64(r))))
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("concurrent reader %d: %w", r, err)
		}
	}
	return nil
}

// TestSampleRangeDecodesOnce pins the decode count of an ascending scan:
// each value once, plus at most one value that ends each read.
func TestSampleRangeDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	const n, m, batches = 10, 5000, 7
	raw := writeSampleDir(t, dir, n, m)
	ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	var nnz int64
	for _, s := range raw {
		nnz += int64(len(s))
	}
	for l := 0; l < batches; l++ {
		lo, hi := uint64(l)*m/batches, uint64(l+1)*m/batches
		for i := 0; i < n; i++ {
			got, err := ds.SampleRange(i, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if w := inRange(raw[i], lo, hi); !slices.Equal(got, w) {
				t.Fatalf("sample %d batch %d: got %v, want %v", i, l, got, w)
			}
		}
	}
	st := ds.IngestStats()
	if st.ValuesDecoded < nnz || st.ValuesDecoded > nnz+batches*n {
		t.Errorf("ValuesDecoded = %d, want in [nnz, nnz+batches·n] = [%d, %d]", st.ValuesDecoded, nnz, nnz+batches*n)
	}
	if st.Evictions == 0 {
		t.Error("a bounded 7-batch scan of 10 samples must evict")
	}
}

// TestIngestCountersExact runs an 8-batch evicting solve, locally and on
// a 4-rank in-process grid, and checks the exact ingest counters: every
// value is decoded at least once and at most once more per batch read,
// and every file is read at least once.
func TestIngestCountersExact(t *testing.T) {
	dir := t.TempDir()
	const n, m, batches = 24, 4000, 8
	writeSampleDir(t, dir, n, m)
	var fileBytes, largest int64
	for i := 0; i < n; i++ {
		matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("s-%03d.*", i)))
		info, err := os.Stat(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += info.Size()
		largest = max(largest, info.Size())
	}
	for _, procs := range []int{1, 4} {
		ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: 3})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.BatchCount = batches
		opts.Procs = procs
		res, err := similarity(ds, opts)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		ing, nnz := res.Stats.Ingest, res.Stats.IndicatorNonzeros
		if ing.ValuesDecoded < nnz || ing.ValuesDecoded > nnz+batches*n {
			t.Errorf("procs=%d: ValuesDecoded = %d, want in [nnz, nnz+batches·n] = [%d, %d]",
				procs, ing.ValuesDecoded, nnz, nnz+batches*n)
		}
		if ing.Evictions == 0 {
			t.Errorf("procs=%d: an 8-batch scan with a 6-sample budget must evict", procs)
		}
		if ing.BytesRead < fileBytes || ing.BytesRead > ing.Loads*largest {
			t.Errorf("procs=%d: BytesRead = %d, want in [%d, Loads·largest file = %d]",
				procs, ing.BytesRead, fileBytes, ing.Loads*largest)
		}
	}
}

// BenchmarkDirDatasetBatchScan is the loader's layer benchmark on a
// scaled-down sparse-files shape: 96 binary samples over a 2^24 universe
// at density 4e-4, scanned in 8 batch ranges through SampleRange with a
// 16-sample prefetch window and eviction on, hinting each scan restart as
// the engine does. It reports the decode and load counts per scan with
// the allocation figures.
func BenchmarkDirDatasetBatchScan(b *testing.B) {
	const n, batches, prefetch = 96, 8, 16
	const m = uint64(1) << 24
	dir := b.TempDir()
	rng := synth.NewRNG(44)
	for i := 0; i < n; i++ {
		vals := make([]uint64, m/2500) // density 4e-4
		for k := range vals {
			vals[k] = rng.Uint64n(m)
		}
		if err := WriteBinary(filepath.Join(dir, fmt.Sprintf("s-%03d.smp", i)), vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var decoded, loads int64
	for op := 0; op < b.N; op++ {
		ds, err := OpenDirOptions(dir, m, DirOptions{Pattern: "*.smp", Prefetch: prefetch})
		if err != nil {
			b.Fatal(err)
		}
		for l := 0; l < batches; l++ {
			lo, hi := uint64(l)*(m/batches), uint64(l+1)*(m/batches)
			for i := 0; i < n; i++ {
				if _, err := ds.SampleRange(i, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
			if l+1 < batches {
				ds.PrefetchRange(0, n)
			}
		}
		st := ds.IngestStats()
		decoded += st.ValuesDecoded
		loads += st.Loads
	}
	b.ReportMetric(float64(decoded)/float64(b.N), "decoded/op")
	b.ReportMetric(float64(loads)/float64(b.N), "loads/op")
}

// FuzzSampleRange reads an arbitrary file through a random partition of
// its universe, with an eviction and a second scan. A file the whole-file
// reader accepts, with every value inside the universe, must come back
// exactly as the concatenated ranges, with no error; any other file must
// fail at least one range read of each scan — the partition reaches every
// byte.
func FuzzSampleRange(f *testing.F) {
	valid := appendBinary(nil, []uint64{0, 3, 7, 200, 1 << 20})
	f.Add(valid, uint64(1<<21), uint64(5))
	f.Add(valid, uint64(100), uint64(9))                            // values outside the universe
	f.Add(append(slices.Clone(valid), 1), uint64(1<<21), uint64(3)) // trailing byte
	f.Add(valid[:len(valid)-1], uint64(1<<21), uint64(7))           // truncated tail
	wrap := binary.AppendUvarint(append(append([]byte{}, binaryMagic[:]...), 3, 5, 200), math.MaxUint64-100)
	f.Add(wrap, uint64(math.MaxUint64), uint64(2))
	f.Add([]byte("3\n1\n2\n"), uint64(10), uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, m, seed uint64) {
		if m == 0 {
			m = 1
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "f.smp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		want, werr := Read(path)
		if werr == nil && len(want) > 0 && want[len(want)-1] >= m {
			werr = fmt.Errorf("value %d outside universe %d", want[len(want)-1], m)
		}
		ds, err := OpenDirOptions(dir, m, DirOptions{Prefetch: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for run := 0; run < 2; run++ {
			cuts := randomCuts(rng, m, 1+int(seed%9))
			var got []uint64
			var firstErr error
			for b := 0; b+1 < len(cuts); b++ {
				if rng.Intn(3) == 0 {
					ds.Evict(0)
				}
				vals, err := ds.SampleRange(0, cuts[b], cuts[b+1])
				if err != nil {
					firstErr = err
					break
				}
				got = append(got, vals...)
			}
			switch {
			case werr == nil && firstErr != nil:
				t.Fatalf("run %d: accepted file failed a range read: %v", run, firstErr)
			case werr == nil && !slices.Equal(got, want):
				t.Fatalf("run %d: ranges %v, whole file %v", run, got, want)
			case werr != nil && firstErr == nil:
				t.Fatalf("run %d: rejected file (%v) passed every range read", run, werr)
			case firstErr != nil && !bytes.Contains([]byte(firstErr.Error()), []byte(path)):
				t.Fatalf("run %d: error does not name the file: %v", run, firstErr)
			}
			ds.Evict(0) // a cached error would answer the next scan
		}
	})
}
