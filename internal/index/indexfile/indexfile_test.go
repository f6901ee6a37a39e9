package indexfile

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/minhash"
)

// fixtureFile builds a two-segment index with a hybrid packed layout,
// sketches (when sketchK > 0), and names including an empty one.
func fixtureFile(t *testing.T, sketchK int) *File {
	t.Helper()
	samples := [][]uint64{
		{2, 5, 9, 100, 101, 102, 103},
		{5, 9, 1000},
		{2, 100, 101, 102, 103, 104, 105, 106},
		{7},
	}
	names := []string{"alpha", "", "gamma", "delta"}
	seg1 := buildSegment(t, samples, names, sketchK, 2)
	seg2 := buildSegment(t, [][]uint64{{1, 2, 3, 4, 5}}, []string{"appended"}, sketchK, bitmat.DenseNever)
	return &File{B: 64, SketchK: sketchK, Segments: []*Segment{seg1, seg2}}
}

func buildSegment(t *testing.T, samples [][]uint64, names []string, sketchK, spec int) *Segment {
	t.Helper()
	union := map[uint64]int{}
	for _, s := range samples {
		for _, v := range s {
			union[v] = 0
		}
	}
	rowMap := make([]uint64, 0, len(union))
	for v := range union {
		rowMap = append(rowMap, v)
	}
	slices.Sort(rowMap)
	for i, v := range rowMap {
		union[v] = i
	}
	rowsPerCol := make([][]int, len(samples))
	cards := make([]int64, len(samples))
	var sketches []minhash.Sketch
	for i, s := range samples {
		for _, v := range s {
			rowsPerCol[i] = append(rowsPerCol[i], union[v])
		}
		cards[i] = int64(len(s))
		if sketchK > 0 {
			sketches = append(sketches, minhash.MustNew(s, sketchK))
		}
	}
	return &Segment{
		RowMap:   rowMap,
		Cards:    cards,
		Names:    names,
		Pack:     bitmat.PackColumnsThreshold(rowsPerCol, len(rowMap), 64, spec),
		Sketches: sketches,
	}
}

func encode(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func checkEqual(t *testing.T, got, want *File) {
	t.Helper()
	if got.B != want.B || got.SketchK != want.SketchK || len(got.Segments) != len(want.Segments) {
		t.Fatalf("header mismatch: got (%d,%d,%d segs), want (%d,%d,%d segs)",
			got.B, got.SketchK, len(got.Segments), want.B, want.SketchK, len(want.Segments))
	}
	for s, ws := range want.Segments {
		gs := got.Segments[s]
		if !reflect.DeepEqual(gs.RowMap, ws.RowMap) {
			t.Fatalf("segment %d: row map mismatch", s)
		}
		if !reflect.DeepEqual(gs.Cards, ws.Cards) {
			t.Fatalf("segment %d: cards mismatch", s)
		}
		if !reflect.DeepEqual(gs.Names, ws.Names) {
			t.Fatalf("segment %d: names %v, want %v", s, gs.Names, ws.Names)
		}
		if len(gs.Sketches) != len(ws.Sketches) {
			t.Fatalf("segment %d: %d sketches, want %d", s, len(gs.Sketches), len(ws.Sketches))
		}
		for j := range ws.Sketches {
			if gs.Sketches[j].Size != ws.Sketches[j].Size ||
				!reflect.DeepEqual(gs.Sketches[j].Hashes, ws.Sketches[j].Hashes) {
				t.Fatalf("segment %d sketch %d mismatch", s, j)
			}
		}
		wantGram := bitmat.GramBlock(ws.Pack, ws.Pack)
		gotGram := bitmat.GramBlock(gs.Pack, gs.Pack)
		if !reflect.DeepEqual(wantGram.Data, gotGram.Data) {
			t.Fatalf("segment %d: packed columns changed", s)
		}
		if gs.Pack.DenseThresholdSpec() != ws.Pack.DenseThresholdSpec() {
			t.Fatalf("segment %d: threshold spec changed", s)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, sketchK := range []int{0, 4} {
		f := fixtureFile(t, sketchK)
		data := encode(t, f)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("sketchK=%d: Decode: %v", sketchK, err)
		}
		checkEqual(t, got, f)
		// Canonical: re-encoding a decoded file is byte-identical.
		if !bytes.Equal(encode(t, got), data) {
			t.Fatalf("sketchK=%d: re-encode differs", sketchK)
		}
	}
}

func TestRoundTripEmptyFile(t *testing.T) {
	f := &File{B: 32}
	got, err := Decode(encode(t, f))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.B != 32 || len(got.Segments) != 0 {
		t.Fatalf("got B=%d, %d segments", got.B, len(got.Segments))
	}
}

func TestOpenMappedMatchesLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx")
	f := fixtureFile(t, 4)
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	checkEqual(t, m.File, f)
	checkEqual(t, loaded, f)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestAppendSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx")
	f := fixtureFile(t, 4)
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	extra := buildSegment(t, [][]uint64{{9, 10, 11}}, []string{"late"}, 4, bitmat.DenseAuto)
	if err := AppendSegment(path, extra, 64, 4); err != nil {
		t.Fatalf("AppendSegment: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile after append: %v", err)
	}
	want := &File{B: 64, SketchK: 4, Segments: append(append([]*Segment{}, f.Segments...), extra)}
	checkEqual(t, got, want)

	if err := AppendSegment(path, extra, 32, 4); err == nil {
		t.Fatal("AppendSegment accepted mismatched b")
	}
	if err := AppendSegment(path, extra, 64, 8); err == nil {
		t.Fatal("AppendSegment accepted mismatched sketch size")
	}
}

// TestTrailingUnpublishedSegment simulates a crash between writing a
// segment's bytes and publishing the count: the file must still decode to
// the previous state.
func TestTrailingUnpublishedSegment(t *testing.T) {
	f := fixtureFile(t, 0)
	data := encode(t, f)
	half := encode(t, &File{B: 64, Segments: f.Segments[:1]})
	// Splice: header claims 1 segment, but both segments' bytes follow.
	crash := append(append([]byte{}, half[:fileHeaderSize]...), data[fileHeaderSize:]...)
	got, err := Decode(crash)
	if err != nil {
		t.Fatalf("Decode with trailing bytes: %v", err)
	}
	if len(got.Segments) != 1 {
		t.Fatalf("got %d segments, want the 1 published", len(got.Segments))
	}
}

// TestAppendSegmentReconcilesOrphanTail simulates append-after-crash: a
// prior append wrote some or all of a segment's bytes but died before
// publishing the count. The next append must truncate that orphan tail —
// otherwise its segment lands past the garbage and reopening fails (or
// resurrects the unpublished segment) at the expected segment offset.
func TestAppendSegmentReconcilesOrphanTail(t *testing.T) {
	for _, sketchK := range []int{0, 4} {
		orphan := buildSegment(t, [][]uint64{{42, 43}}, []string{"crashed"}, sketchK, bitmat.DenseAuto)
		var orphanBytes bytes.Buffer
		ow := &writer{w: &orphanBytes}
		writeSegment(ow, orphan, sketchK)
		ow.flush()
		if ow.err != nil {
			t.Fatalf("writeSegment: %v", ow.err)
		}
		// A torn half-written tail and a complete-but-unpublished one.
		for _, tail := range [][]byte{
			orphanBytes.Bytes()[:orphanBytes.Len()/2],
			orphanBytes.Bytes(),
		} {
			path := filepath.Join(t.TempDir(), "idx")
			f := fixtureFile(t, sketchK)
			if err := WriteFile(path, f); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			fd, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fd.Write(tail); err != nil {
				t.Fatal(err)
			}
			if err := fd.Close(); err != nil {
				t.Fatal(err)
			}

			extra := buildSegment(t, [][]uint64{{9, 10, 11}}, []string{"late"}, sketchK, bitmat.DenseAuto)
			if err := AppendSegment(path, extra, 64, sketchK); err != nil {
				t.Fatalf("sketchK=%d tail=%dB: AppendSegment: %v", sketchK, len(tail), err)
			}
			got, err := LoadFile(path)
			if err != nil {
				t.Fatalf("sketchK=%d tail=%dB: LoadFile after append: %v", sketchK, len(tail), err)
			}
			want := &File{B: 64, SketchK: sketchK, Segments: append(append([]*Segment{}, f.Segments...), extra)}
			checkEqual(t, got, want)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encode(t, fixtureFile(t, 4))
	mutate := func(off int, b byte) []byte {
		m := append([]byte{}, valid...)
		m[off] = b
		return m
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:fileHeaderSize-1],
		"bad magic":         mutate(0, 'X'),
		"unknown flag":      mutate(9, 0xff),
		"zero b":            mutate(16, 0),
		"oversized b":       mutate(16, 200),
		"segment bomb":      mutate(segCountOff+6, 0xff), // ~2^55 segments
		"bad segment magic": mutate(fileHeaderSize, 'X'),
		"sample bomb":       mutate(fileHeaderSize+8+6, 0xff),
		"row bomb":          mutate(fileHeaderSize+16+6, 0xff),
		"sketch without flag": func() []byte {
			m := append([]byte{}, valid...)
			m[8] = 0 // clear sketch flag, leave sketchK
			return m
		}(),
	}
	for i := 1; i < len(valid); i += 97 {
		cases["truncated"] = valid[:i]
		if _, err := Decode(valid[:i]); err == nil {
			// Truncation that still parses must only be possible past the
			// last published byte — never the case for a full file prefix.
			t.Fatalf("Decode accepted %d-byte truncation of %d-byte file", i, len(valid))
		}
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestWriteFileErrors(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "missing", "idx"), &File{B: 64}); err == nil {
		t.Fatal("WriteFile into missing directory succeeded")
	}
	if err := AppendSegment(filepath.Join(dir, "nope"), &Segment{}, 64, 0); err == nil {
		t.Fatal("AppendSegment on missing file succeeded")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(bad); err == nil {
		t.Fatal("OpenMapped accepted a non-index file")
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("LoadFile accepted a non-index file")
	}
}
