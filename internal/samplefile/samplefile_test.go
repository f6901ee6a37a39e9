package samplefile

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"genomeatscale/internal/core"
	"genomeatscale/internal/synth"
)

func TestTextRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.txt")
	values := []uint64{5, 1, 9, 5, 0, math.MaxUint64}
	if err := WriteText(path, values); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 5, 9, math.MaxUint64}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestReadTextSkipsCommentsAndRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	os.WriteFile(good, []byte("# header\n3\n\n1\n"), 0o644)
	got, err := Read(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("got %v", got)
	}
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("12\nnot-a-number\n"), 0o644)
	if _, err := Read(bad); err == nil {
		t.Error("garbage line should error")
	}
	if _, err := Read(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.bin")
	values := []uint64{100, 3, 100, 7, 0, 1 << 50}
	if err := WriteBinary(path, values); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 3, 7, 100, 1 << 50}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	counter := 0
	f := func(raw []uint64) bool {
		counter++
		path := filepath.Join(dir, "prop", "s.bin")
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := WriteBinary(path, raw); err != nil {
			return false
		}
		got, err := Read(path)
		if err != nil {
			return false
		}
		want := normalize(raw)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := decodeBinary("text.bin", []byte("12\n34\n")); err == nil {
		t.Error("text file should not parse as binary")
	}
	truncated := filepath.Join(dir, "trunc.bin")
	os.WriteFile(truncated, append(append([]byte{}, binaryMagic[:]...), 0x05), 0o644)
	if _, err := Read(truncated); err == nil {
		t.Error("truncated file should error")
	}
	if _, err := Read(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file should error")
	}
	// A count byte shrunk from 3 to 2 leaves the third value's bytes after
	// the last counted value: the file is corrupt, not a shorter sample.
	shrunk := filepath.Join(dir, "shrunk.bin")
	if err := WriteBinary(shrunk, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	data[len(binaryMagic)] = 2
	os.WriteFile(shrunk, data, 0o644)
	if vals, err := Read(shrunk); err == nil {
		t.Errorf("shrunken count header: read %v without error", vals)
	}
}

func TestReadAutoDetects(t *testing.T) {
	dir := t.TempDir()
	textPath := filepath.Join(dir, "a.txt")
	binPath := filepath.Join(dir, "b.smp")
	WriteText(textPath, []uint64{1, 2, 3})
	WriteBinary(binPath, []uint64{4, 5, 6})
	txt, err := Read(textPath)
	if err != nil || len(txt) != 3 || txt[0] != 1 {
		t.Errorf("text autodetect failed: %v %v", txt, err)
	}
	bin, err := Read(binPath)
	if err != nil || len(bin) != 3 || bin[2] != 6 {
		t.Errorf("binary autodetect failed: %v %v", bin, err)
	}
	if _, err := Read(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing file should error")
	}
}

func TestBinarySmallerThanTextForDenseSamples(t *testing.T) {
	dir := t.TempDir()
	rng := synth.NewRNG(9)
	values := make([]uint64, 20000)
	for i := range values {
		values[i] = rng.Uint64n(1 << 40)
	}
	textPath := filepath.Join(dir, "s.txt")
	binPath := filepath.Join(dir, "s.bin")
	if err := WriteText(textPath, values); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(binPath, values); err != nil {
		t.Fatal(err)
	}
	ti, _ := os.Stat(textPath)
	bi, _ := os.Stat(binPath)
	if bi.Size() >= ti.Size() {
		t.Errorf("binary (%d B) should be smaller than text (%d B)", bi.Size(), ti.Size())
	}
}

func TestOpenDirAsDataset(t *testing.T) {
	dir := t.TempDir()
	WriteText(filepath.Join(dir, "b.txt"), []uint64{4, 5, 6, 7})
	WriteText(filepath.Join(dir, "a.txt"), []uint64{1, 2, 3, 4, 5})
	WriteBinary(filepath.Join(dir, "c.txt"), []uint64{50, 51})
	ds, err := OpenDir(dir, "*.txt", 100)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 3 || ds.NumAttributes() != 100 {
		t.Fatalf("shape %d x %d", ds.NumSamples(), ds.NumAttributes())
	}
	// Lexicographic order: a, b, c.
	if ds.SampleName(0) != "a" || ds.SampleName(1) != "b" || ds.SampleName(2) != "c" {
		t.Errorf("names = %v %v %v", ds.SampleName(0), ds.SampleName(1), ds.SampleName(2))
	}

	// The directory-backed dataset must plug straight into the pipeline and
	// agree with the exact reference.
	res, err := similarity(ds, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Similarity(0, 1)-2.0/7.0) > 1e-12 {
		t.Errorf("S(a,b) = %v, want 2/7", res.Similarity(0, 1))
	}
	if res.Similarity(0, 2) != 0 {
		t.Errorf("S(a,c) = %v, want 0", res.Similarity(0, 2))
	}

	// Distributed path over the same lazily-loaded dataset.
	opts := core.DefaultOptions()
	opts.Procs = 3
	opts.BatchCount = 2
	dres, err := similarity(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dres.Similarity(0, 1)-res.Similarity(0, 1)) > 1e-12 {
		t.Error("distributed and sequential paths disagree on DirDataset")
	}

	// Eviction forces a reload on next access without changing results.
	ds.Evict(0)
	if vals, err := ds.SampleErr(0); err != nil || len(vals) != 5 {
		t.Errorf("evicted sample should reload, got %v, %v", vals, err)
	}
}

func TestOpenDirErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDir(dir, "*.txt", 100); err == nil {
		t.Error("empty directory should error")
	}
	WriteText(filepath.Join(dir, "a.txt"), []uint64{1})
	if _, err := OpenDir(dir, "*.txt", 0); err == nil {
		t.Error("zero universe should error")
	}
	if _, err := OpenDir(dir, "[", 100); err == nil {
		t.Error("bad glob should error")
	}
}

func TestSampleOutOfUniverseErrors(t *testing.T) {
	dir := t.TempDir()
	WriteText(filepath.Join(dir, "a.txt"), []uint64{1000})
	ds, err := OpenDir(dir, "*.txt", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.SampleErr(0); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Errorf("SampleErr = %v, want universe-mismatch error", err)
	}
}
