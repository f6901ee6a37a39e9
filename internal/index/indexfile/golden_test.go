package indexfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"genomeatscale/internal/bitmat"
)

// oracleWriter is the encoder the format was first written with — one
// 8-byte Write per word, no buffer — kept as the reference the buffered
// writer must match byte for byte.
type oracleWriter struct {
	out bytes.Buffer
	buf [8]byte
}

func (w *oracleWriter) bytes(b []byte) { w.out.Write(b) }

func (w *oracleWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.out.Write(w.buf[:])
}

func oracleEncode(f *File) []byte {
	w := &oracleWriter{}
	var flags uint64
	if f.SketchK > 0 {
		flags |= flagSketches
	}
	w.bytes([]byte(magic))
	w.u64(flags)
	w.u64(uint64(f.B))
	w.u64(uint64(f.SketchK))
	w.u64(uint64(len(f.Segments)))
	w.bytes(make([]byte, fileHeaderSize-40))
	for _, seg := range f.Segments {
		oracleSegment(w, seg, f.SketchK)
	}
	return w.out.Bytes()
}

func oracleSegment(w *oracleWriter, seg *Segment, sketchK int) {
	raw := seg.Pack.Raw()
	samples := seg.Samples()
	var nameBytes int
	for _, n := range seg.Names {
		nameBytes += len(n)
	}
	w.bytes([]byte(segMagic))
	w.u64(uint64(samples))
	w.u64(uint64(len(seg.RowMap)))
	w.u64(uint64(raw.WordRows))
	w.u64(uint64(int64(raw.ThresholdSpec)))
	w.u64(uint64(len(raw.Words)))
	w.u64(uint64(len(raw.Slab)))
	w.u64(uint64(raw.SlabNNZ))
	w.u64(uint64(nameBytes))
	w.bytes(make([]byte, segHeaderSize-72))

	for _, v := range seg.RowMap {
		w.u64(v)
	}
	for _, v := range seg.Cards {
		w.u64(uint64(v))
	}
	for _, v := range raw.ColPtr {
		w.u64(uint64(int64(v)))
	}
	for _, v := range raw.WordRow {
		w.u64(uint64(int64(v)))
	}
	for _, v := range raw.Words {
		w.u64(v)
	}
	for j := 0; j < samples; j++ {
		off := int64(-1)
		if raw.DenseOff != nil {
			off = int64(raw.DenseOff[j])
		}
		w.u64(uint64(off))
	}
	for _, v := range raw.Slab {
		w.u64(v)
	}
	if sketchK > 0 {
		for _, s := range seg.Sketches {
			w.u64(uint64(len(s.Hashes)))
		}
		for _, s := range seg.Sketches {
			for _, h := range s.Hashes {
				w.u64(h)
			}
			for i := len(s.Hashes); i < sketchK; i++ {
				w.u64(0)
			}
		}
	}
	off := uint64(0)
	w.u64(0)
	for _, n := range seg.Names {
		off += uint64(len(n))
		w.u64(off)
	}
	for _, n := range seg.Names {
		w.bytes([]byte(n))
	}
	w.bytes(make([]byte, pad8(nameBytes)-nameBytes))
}

// bigSegment is a segment whose encoding spans several writer buffers: two
// samples of 8 000 values each, stored dense, and a sparse one of 40.
func bigSegment(t *testing.T, sketchK int) *Segment {
	t.Helper()
	samples := make([][]uint64, 3)
	for i := range samples {
		for v := 0; v < 8000; v++ {
			samples[i] = append(samples[i], uint64(3*v+i))
		}
	}
	samples[2] = samples[2][:40]
	return buildSegment(t, samples, []string{"big-a", "big-b", "small"}, sketchK, bitmat.DenseAuto)
}

// countingWriter records the size of every Write it receives.
type countingWriter struct {
	dst    io.Writer
	writes []int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.dst.Write(p)
}

// TestWriteToMatchesOracle pins the buffered encoder to the per-word one:
// the same bytes for hybrid dense/sparse layouts, sketches on and off, an
// empty segment, an empty file, and a segment larger than the buffer — and
// it gets them out in buffer-sized writes, not one per word.
func TestWriteToMatchesOracle(t *testing.T) {
	empty := &Segment{Pack: bitmat.PackColumnsThreshold(nil, 0, 64, bitmat.DenseAuto)}
	cases := map[string]*File{
		"empty file": {B: 32},
	}
	for _, sketchK := range []int{0, 4} {
		fix := fixtureFile(t, sketchK)
		cases[fmt.Sprintf("fixture k=%d", sketchK)] = fix
		cases[fmt.Sprintf("empty segment k=%d", sketchK)] = &File{B: 64, SketchK: sketchK,
			Segments: []*Segment{fix.Segments[0], empty, fix.Segments[1]}}
		cases[fmt.Sprintf("big k=%d", sketchK)] = &File{B: 64, SketchK: sketchK,
			Segments: []*Segment{bigSegment(t, sketchK), fix.Segments[1]}}
	}
	for name, f := range cases {
		want := oracleEncode(f)
		var got bytes.Buffer
		cw := &countingWriter{dst: &got}
		n, err := f.WriteTo(cw)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: buffered encoding (%d bytes, reported %d) differs from the per-word oracle (%d bytes)",
				name, got.Len(), n, len(want))
		}
		if max := len(want)/writerBufSize + 1; len(cw.writes) > max {
			t.Fatalf("%s: %d writes for %d bytes, want at most %d", name, len(cw.writes), len(want), max)
		}
		if _, err := Decode(want); err != nil {
			t.Fatalf("%s: oracle bytes do not decode: %v", name, err)
		}
	}
	if big := oracleEncode(cases["big k=4"]); len(big) < 2*writerBufSize {
		t.Fatalf("big fixture is only %d bytes: it no longer spans writer buffers", len(big))
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, io.ErrShortWrite
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestWriteToReportsFailure: a destination that fails at any point of the
// encoding surfaces the error and the bytes it did take, and the encoder
// stops handing it more.
func TestWriteToReportsFailure(t *testing.T) {
	f := &File{B: 64, SketchK: 4, Segments: []*Segment{bigSegment(t, 4)}}
	size := len(oracleEncode(f))
	for limit := 0; limit < size; limit += size/7 + 1 {
		n, err := f.WriteTo(&failAfter{limit: limit})
		if err == nil {
			t.Fatalf("limit %d: WriteTo succeeded on a failing destination", limit)
		}
		if n != int64(limit) {
			t.Fatalf("limit %d: WriteTo reports %d bytes written", limit, n)
		}
	}
}
