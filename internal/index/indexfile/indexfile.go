// Package indexfile implements the on-disk format of the persistent
// similarity index: a magic/version header followed by self-describing
// segments, each persisting one bitmat.Packed column block together with
// its row map, per-sample exact cardinalities, optional MinHash sketches
// and sample names.
//
// The format is designed to be mmap-able: every section is a fixed-width
// little-endian array aligned to 8 bytes, so on little-endian hosts the
// heavy payloads (bitmask words, dense slab, sketches) are adopted
// zero-copy from the mapped region and page in lazily on first query.
// Metadata (row maps, column pointers, sparse word rows) is validated on
// open — the same discipline as samplefile's binary reader: counts are
// checked against the remaining file size before any allocation, a corrupt
// or truncated file yields an error, never a panic or an oversized
// allocation, and the reader is fuzzed (FuzzReadIndex).
//
// Layout:
//
//	file header (64 B): magic "GASIDX01", flags, b, sketchK, segCount
//	segment × segCount:
//	  segment header (96 B): magic "GASSEG01", samples, activeRows,
//	    wordRows, thresholdSpec, sparseNNZ, slabWords, slabNNZ, nameBytes
//	  rowMap   [activeRows]u64   sorted distinct attribute values
//	  cards    [samples]i64      exact per-sample cardinalities
//	  colPtr   [samples+1]i64    bitmat sparse column pointers
//	  wordRow  [sparseNNZ]i64    bitmat sparse word-row stream
//	  words    [sparseNNZ]u64    bitmat sparse word stream
//	  denseOff [samples]i64      bitmat dense slab offsets (-1 = sparse)
//	  slab     [slabWords]u64    bitmat dense slab
//	  sketchLen [samples]i64     only when sketchK > 0
//	  sketches [samples·sketchK]u64  only when sketchK > 0 (stride K)
//	  nameOff  [samples+1]u64    offsets into the name blob
//	  names    [nameBytes]byte, zero-padded to a multiple of 8
//
// The segment count lives at a fixed header offset so an appender can
// write a new segment past the end, fsync, then publish it by bumping the
// count — a crash between the two steps leaves the previous, fully
// consistent index visible. An appender truncates any such unpublished
// tail before writing, so segment offsets always follow from the
// published headers alone.
package indexfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/minhash"
)

const (
	magic    = "GASIDX01"
	segMagic = "GASSEG01"

	fileHeaderSize = 64
	segHeaderSize  = 96

	// segCountOff is the byte offset of the segment count within the file
	// header — the single word an append rewrites to publish a segment.
	segCountOff = 32

	flagSketches = 1 << 0

	// maxSketchK caps the per-sample sketch size a header may declare;
	// far above any useful bottom-k sketch, low enough that
	// samples×sketchK stays within the size checked against the file.
	maxSketchK = 1 << 20
)

// File is a decoded index: the packing width, the sketch size (0 when the
// index carries no sketches) and the segments in append order.
type File struct {
	B        int
	SketchK  int
	Segments []*Segment
}

// Segment is one persisted column block. Samples are global: segment s
// holds samples [sum of earlier segment sizes, +Samples()).
type Segment struct {
	// RowMap maps the segment's local row space to attribute values:
	// local row r represents attribute RowMap[r]. Sorted strictly
	// ascending, so queries translate their sorted values in one
	// two-pointer walk.
	RowMap []uint64
	// Cards[j] is the exact cardinality (number of attribute values) of
	// the segment's j-th sample.
	Cards []int64
	// Names holds the samples' human-readable identifiers.
	Names []string
	// Pack is the segment's packed indicator columns over the local row
	// space (ActiveRows == len(RowMap)).
	Pack *bitmat.Packed
	// Sketches holds each sample's MinHash sketch; nil when the file was
	// written without sketches.
	Sketches []minhash.Sketch
}

// Samples returns the number of samples in the segment.
func (s *Segment) Samples() int { return len(s.Cards) }

// reader walks a decoded byte slice with bounds checking: every take
// validates the requested size against the remaining bytes first, so a
// header bomb (a count far larger than the file) fails fast without
// allocating.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) take(n int, what string) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("indexfile: %s needs %d bytes, %d remain", what, n, r.remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// count reads a u64 count field and bounds it by the number of elemSize
// elements that could possibly remain in the file — the header-bomb cap.
func (r *reader) count(b []byte, off int, elemSize int, what string) (int, error) {
	v := binary.LittleEndian.Uint64(b[off:])
	if v > uint64(r.remaining())/uint64(elemSize) {
		return 0, fmt.Errorf("indexfile: %s count %d exceeds file size", what, v)
	}
	return int(v), nil
}

func pad8(n int) int { return (n + 7) &^ 7 }

// Decode parses an index from data, which must hold the complete file.
// The returned File aliases data wherever the host allows zero-copy
// adoption (little-endian, aligned sections): the caller must keep data
// alive and unmodified — for mmap-opened indexes, until Close.
func Decode(data []byte) (*File, error) {
	r := &reader{data: data}
	h, err := r.take(fileHeaderSize, "file header")
	if err != nil {
		return nil, err
	}
	if string(h[:8]) != magic {
		return nil, fmt.Errorf("indexfile: bad magic %q", h[:8])
	}
	flags := binary.LittleEndian.Uint64(h[8:])
	if flags&^uint64(flagSketches) != 0 {
		return nil, fmt.Errorf("indexfile: unsupported flags %#x", flags)
	}
	b := binary.LittleEndian.Uint64(h[16:])
	if b < 1 || b > 64 {
		return nil, fmt.Errorf("indexfile: bitmask width %d outside [1,64]", b)
	}
	sketchK := binary.LittleEndian.Uint64(h[24:])
	if flags&flagSketches == 0 {
		if sketchK != 0 {
			return nil, fmt.Errorf("indexfile: sketch size %d without sketch flag", sketchK)
		}
	} else if sketchK < 1 || sketchK > maxSketchK {
		return nil, fmt.Errorf("indexfile: sketch size %d outside [1,%d]", sketchK, maxSketchK)
	}
	segCount, err := r.count(h, segCountOff, segHeaderSize, "segment")
	if err != nil {
		return nil, err
	}
	f := &File{B: int(b), SketchK: int(sketchK), Segments: make([]*Segment, 0, segCount)}
	for i := 0; i < segCount; i++ {
		seg, err := decodeSegment(r, f.B, f.SketchK)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		f.Segments = append(f.Segments, seg)
	}
	// Trailing bytes past the published segment count are legal: they are
	// a crashed append that never bumped the count.
	return f, nil
}

func decodeSegment(r *reader, b, sketchK int) (*Segment, error) {
	h, err := r.take(segHeaderSize, "segment header")
	if err != nil {
		return nil, err
	}
	if string(h[:8]) != segMagic {
		return nil, fmt.Errorf("indexfile: bad segment magic %q", h[:8])
	}
	samples, err := r.count(h, 8, 8, "sample")
	if err != nil {
		return nil, err
	}
	activeRows, err := r.count(h, 16, 8, "row map")
	if err != nil {
		return nil, err
	}
	wordRows, err := r.count(h, 24, 8, "word row")
	if err != nil {
		return nil, err
	}
	threshold := int64(binary.LittleEndian.Uint64(h[32:]))
	if threshold < -1 || threshold > int64(len(r.data)) {
		return nil, fmt.Errorf("indexfile: dense threshold spec %d out of range", threshold)
	}
	sparseNNZ, err := r.count(h, 40, 8, "sparse word")
	if err != nil {
		return nil, err
	}
	slabWords, err := r.count(h, 48, 8, "slab word")
	if err != nil {
		return nil, err
	}
	slabNNZ, err := r.count(h, 56, 8, "slab nonzero")
	if err != nil {
		return nil, err
	}
	nameBytes, err := r.count(h, 64, 1, "name blob")
	if err != nil {
		return nil, err
	}

	rowMapB, err := r.take(activeRows*8, "row map")
	if err != nil {
		return nil, err
	}
	cardsB, err := r.take(samples*8, "cardinalities")
	if err != nil {
		return nil, err
	}
	colPtrB, err := r.take((samples+1)*8, "column pointers")
	if err != nil {
		return nil, err
	}
	wordRowB, err := r.take(sparseNNZ*8, "word rows")
	if err != nil {
		return nil, err
	}
	wordsB, err := r.take(sparseNNZ*8, "words")
	if err != nil {
		return nil, err
	}
	denseOffB, err := r.take(samples*8, "dense offsets")
	if err != nil {
		return nil, err
	}
	slabB, err := r.take(slabWords*8, "slab")
	if err != nil {
		return nil, err
	}
	var sketchLenB, sketchesB []byte
	if sketchK > 0 {
		if sketchLenB, err = r.take(samples*8, "sketch lengths"); err != nil {
			return nil, err
		}
		if samples > 0 && sketchK > r.remaining()/8/samples {
			return nil, fmt.Errorf("indexfile: %d sketches of size %d exceed file size", samples, sketchK)
		}
		if sketchesB, err = r.take(samples*sketchK*8, "sketches"); err != nil {
			return nil, err
		}
	}
	nameOffB, err := r.take((samples+1)*8, "name offsets")
	if err != nil {
		return nil, err
	}
	nameBlob, err := r.take(pad8(nameBytes), "name blob")
	if err != nil {
		return nil, err
	}
	nameBlob = nameBlob[:nameBytes]

	rowMap := castU64(rowMapB, activeRows)
	for i := 1; i < len(rowMap); i++ {
		if rowMap[i] <= rowMap[i-1] {
			return nil, fmt.Errorf("indexfile: row map not strictly ascending at %d", i)
		}
	}
	cards := castI64(cardsB, samples)
	for i, c := range cards {
		// A sample's cardinality counts its distinct attribute values, all
		// of which appear in the segment's row map.
		if c < 0 || c > int64(activeRows) {
			return nil, fmt.Errorf("indexfile: cardinality %d of sample %d outside [0,%d]", c, i, activeRows)
		}
	}
	colPtr, err := castInts(colPtrB, samples+1, 0, int64(sparseNNZ), "column pointer")
	if err != nil {
		return nil, err
	}
	wordRow, err := castInts(wordRowB, sparseNNZ, 0, int64(wordRows)-1, "word row")
	if err != nil {
		return nil, err
	}
	denseOff, err := castInts(denseOffB, samples, -1, int64(slabWords), "dense offset")
	if err != nil {
		return nil, err
	}
	pack, err := bitmat.FromRaw(bitmat.RawParts{
		WordRows:      wordRows,
		Cols:          samples,
		B:             b,
		ActiveRows:    activeRows,
		ThresholdSpec: int(threshold),
		ColPtr:        colPtr,
		WordRow:       wordRow,
		Words:         castU64(wordsB, sparseNNZ),
		DenseOff:      denseOff,
		Slab:          castU64(slabB, slabWords),
		SlabNNZ:       slabNNZ,
	})
	if err != nil {
		return nil, err
	}

	seg := &Segment{RowMap: rowMap, Cards: cards, Pack: pack}
	if sketchK > 0 {
		lens, err := castInts(sketchLenB, samples, 0, int64(sketchK), "sketch length")
		if err != nil {
			return nil, err
		}
		hashes := castU64(sketchesB, samples*sketchK)
		seg.Sketches = make([]minhash.Sketch, samples)
		for j := 0; j < samples; j++ {
			hs := hashes[j*sketchK : j*sketchK+lens[j]]
			for i := 1; i < len(hs); i++ {
				if hs[i] <= hs[i-1] {
					return nil, fmt.Errorf("indexfile: sketch %d hashes not strictly ascending", j)
				}
			}
			seg.Sketches[j] = minhash.Sketch{Size: sketchK, Hashes: hs}
		}
	}

	nameOff := castU64(nameOffB, samples+1)
	seg.Names = make([]string, samples)
	for j := 0; j < samples; j++ {
		lo, hi := nameOff[j], nameOff[j+1]
		if lo > hi || hi > uint64(nameBytes) {
			return nil, fmt.Errorf("indexfile: name offsets [%d,%d] of sample %d outside blob of %d bytes",
				lo, hi, j, nameBytes)
		}
		seg.Names[j] = string(nameBlob[lo:hi])
	}
	if samples > 0 && (nameOff[0] != 0 || nameOff[samples] != uint64(nameBytes)) {
		return nil, fmt.Errorf("indexfile: name offsets do not span the blob")
	}
	if samples == 0 && nameBytes != 0 {
		return nil, fmt.Errorf("indexfile: %d name bytes with no samples", nameBytes)
	}
	return seg, nil
}

// writerBufSize is the writer's fixed buffer. Sections are encoded into it
// and leave in writes of this size, so encoding never holds more than one
// buffer of the file in memory whatever the index size, and an appended
// one-sample segment goes out in a single write.
const writerBufSize = 64 << 10

// writer encodes through a fixed buffer, counts the bytes the destination
// took and keeps the first error, so encoding reads as a straight-line
// section list. The zero value with w set is ready; flush ends a use.
type writer struct {
	w    io.Writer
	n    int64
	err  error
	used int
	buf  [writerBufSize]byte
}

// flush hands the buffered bytes to the destination.
func (w *writer) flush() {
	if w.err == nil && w.used > 0 {
		n, err := w.w.Write(w.buf[:w.used])
		w.n += int64(n)
		w.err = err
	}
	w.used = 0
}

func (w *writer) bytes(b []byte) {
	for len(b) > 0 {
		if w.used == len(w.buf) {
			w.flush()
		}
		n := copy(w.buf[w.used:], b)
		w.used += n
		b = b[n:]
	}
}

func (w *writer) u64(v uint64) {
	if len(w.buf)-w.used < 8 {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.used:], v)
	w.used += 8
}

func (w *writer) u64s(vs []uint64) {
	for _, v := range vs {
		w.u64(v)
	}
}

func (w *writer) i64s(vs []int64) {
	for _, v := range vs {
		w.u64(uint64(v))
	}
}

func (w *writer) ints(vs []int) {
	for _, v := range vs {
		w.u64(uint64(int64(v)))
	}
}

// WriteTo encodes the complete index. It implements io.WriterTo.
func (f *File) WriteTo(dst io.Writer) (int64, error) {
	w := &writer{w: dst}
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
		writeSegment(w, seg, f.SketchK)
	}
	w.flush()
	return w.n, w.err
}

func writeSegment(w *writer, seg *Segment, sketchK int) {
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

	w.u64s(seg.RowMap)
	w.i64s(seg.Cards)
	w.ints(raw.ColPtr)
	w.ints(raw.WordRow)
	w.u64s(raw.Words)
	if raw.DenseOff != nil {
		w.ints(raw.DenseOff)
	} else {
		allSparse := int64(-1)
		for j := 0; j < samples; j++ {
			w.u64(uint64(allSparse))
		}
	}
	w.u64s(raw.Slab)
	if sketchK > 0 {
		for _, s := range seg.Sketches {
			w.u64(uint64(len(s.Hashes)))
		}
		for _, s := range seg.Sketches {
			w.u64s(s.Hashes)
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

// filesystem is what WriteFile and AppendSegment ask of the operating
// system. The crash-point tests substitute one that fails, or loses what
// was not yet synced, at a chosen operation.
type filesystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the directory's entries — a rename into it — durable.
	SyncDir(dir string) error
}

// file is the part of *os.File the writers use. Every write is positioned,
// so a file carries no offset state for a failed operation to leave behind.
type file interface {
	io.ReaderAt
	io.WriterAt
	io.Seeker // only to learn the size: Seek(0, io.SeekEnd)
	Truncate(size int64) error
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return syncDir(dir) }

// WriteFile writes the index to path atomically: the bytes go to path.tmp,
// are synced, and only then renamed over path, with the directory synced
// after — a crash at any point leaves either the previous file or the new
// one, never a truncated mix. A path.tmp left behind by such a crash is
// overwritten by the next call.
func WriteFile(path string, f *File) error { return writeFile(osFS{}, path, f) }

func writeFile(fsys filesystem, path string, f *File) error {
	tmp := path + ".tmp"
	err := writeSynced(fsys, tmp, f)
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort: the next call overwrites a leftover
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// writeSynced creates or truncates name, encodes f into it and syncs it.
func writeSynced(fsys filesystem, name string, f *File) error {
	out, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.WriteTo(io.NewOffsetWriter(out, 0)); err != nil {
		return errors.Join(err, out.Close())
	}
	if err := out.Sync(); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}

// AppendSegment durably appends one segment to an existing index file. Any
// orphaned tail from a previously crashed or failed append is truncated
// first; the segment bytes are then written past the consistent end and
// synced before the header's segment count is bumped and synced again, so
// a crash at any point leaves a readable index: either without the new
// segment, or with it fully published. sketchK must match the file's (the
// caller owns the corpus-wide sketch configuration); the file header is
// read back to enforce agreement.
func AppendSegment(path string, seg *Segment, b, sketchK int) error {
	return appendSegment(osFS{}, path, seg, b, sketchK)
}

func appendSegment(fsys filesystem, path string, seg *Segment, b, sketchK int) (err error) {
	fd, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := fd.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	h := make([]byte, fileHeaderSize)
	if _, err := fd.ReadAt(h, 0); err != nil {
		return fmt.Errorf("indexfile: reading header: %w", err)
	}
	if string(h[:8]) != magic {
		return fmt.Errorf("indexfile: bad magic %q", h[:8])
	}
	if got := int(binary.LittleEndian.Uint64(h[16:])); got != b {
		return fmt.Errorf("indexfile: file packs b=%d, appending b=%d", got, b)
	}
	if got := int(binary.LittleEndian.Uint64(h[24:])); got != sketchK {
		return fmt.Errorf("indexfile: file sketch size %d, appending %d", got, sketchK)
	}
	segCount := binary.LittleEndian.Uint64(h[segCountOff:])

	// A prior crashed or failed append may have left a partial segment past
	// the published data. Decode tolerates that tail on open, but appending
	// after it would put the new segment past garbage sitting at the offset
	// where segment parsing expects it — publishing the bumped count would
	// then corrupt the index permanently. Reconcile by computing the
	// consistent end from the published segment headers and truncating the
	// orphan before writing; a file that already ends there needs nothing.
	size, err := fd.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	end, err := dataEnd(fd, size, segCount, sketchK)
	if err != nil {
		return err
	}
	if size != end {
		if err := fd.Truncate(end); err != nil {
			return err
		}
	}
	w := &writer{w: io.NewOffsetWriter(fd, end)}
	writeSegment(w, seg, sketchK)
	w.flush()
	if w.err == nil {
		w.err = fd.Sync()
	}
	if w.err != nil {
		// Drop the partial tail (best effort — dataEnd reconciles again on
		// retry even if this truncate fails too, e.g. on a full disk).
		_ = fd.Truncate(end)
		return w.err
	}
	binary.LittleEndian.PutUint64(h[:8], segCount+1)
	if _, err := fd.WriteAt(h[:8], segCountOff); err != nil {
		return err
	}
	return fd.Sync()
}

// dataEnd returns the byte offset one past the last published segment —
// the consistent end of the file. Bytes beyond it are an orphaned tail
// left by an append that crashed or failed before publishing. The walk
// touches only the segCount segment headers of the size-byte file, never
// the payloads.
func dataEnd(fd io.ReaderAt, size int64, segCount uint64, sketchK int) (int64, error) {
	off := int64(fileHeaderSize)
	h := make([]byte, segHeaderSize)
	for i := uint64(0); i < segCount; i++ {
		if size-off < segHeaderSize {
			return 0, fmt.Errorf("indexfile: segment %d header past end of file", i)
		}
		if _, err := fd.ReadAt(h, off); err != nil {
			return 0, fmt.Errorf("indexfile: reading segment %d header: %w", i, err)
		}
		if string(h[:8]) != segMagic {
			return 0, fmt.Errorf("indexfile: segment %d: bad magic %q", i, h[:8])
		}
		ext, err := segmentExtent(h, sketchK, size-off-segHeaderSize)
		if err != nil {
			return 0, fmt.Errorf("indexfile: segment %d: %w", i, err)
		}
		off += segHeaderSize + ext
		if off > size {
			return 0, fmt.Errorf("indexfile: segment %d extends past end of file", i)
		}
	}
	return off, nil
}

// segmentExtent computes a segment's payload size (everything after its
// header) from the header fields, bounding each count by remain — the
// bytes left in the file — so a corrupt header fails instead of
// overflowing. The section list mirrors decodeSegment.
func segmentExtent(h []byte, sketchK int, remain int64) (int64, error) {
	count := func(off int, elemSize int64, what string) (int64, error) {
		v := binary.LittleEndian.Uint64(h[off:])
		if remain < 0 || v > uint64(remain)/uint64(elemSize) {
			return 0, fmt.Errorf("%s count %d exceeds file size", what, v)
		}
		return int64(v), nil
	}
	samples, err := count(8, 8, "sample")
	if err != nil {
		return 0, err
	}
	activeRows, err := count(16, 8, "row map")
	if err != nil {
		return 0, err
	}
	sparseNNZ, err := count(40, 8, "sparse word")
	if err != nil {
		return 0, err
	}
	slabWords, err := count(48, 8, "slab word")
	if err != nil {
		return 0, err
	}
	nameBytes, err := count(64, 1, "name blob")
	if err != nil {
		return 0, err
	}
	namePadded := (nameBytes + 7) &^ 7
	ext := 8*(activeRows+ // rowMap
		samples+ // cards
		(samples+1)+ // colPtr
		2*sparseNNZ+ // wordRow + words
		samples+ // denseOff
		slabWords+ // slab
		(samples+1)) + // nameOff
		namePadded // names, zero-padded to 8
	if sketchK > 0 {
		if samples > 0 && int64(sketchK) > remain/8/samples {
			return 0, fmt.Errorf("%d sketches of size %d exceed file size", samples, sketchK)
		}
		ext += 8 * (samples + samples*int64(sketchK)) // sketchLen + sketches
	}
	return ext, nil
}

// Mapped is an index opened without loading: File's heavy sections alias
// the mapped region, which stays valid until Close.
type Mapped struct {
	File *File
	data []byte
}

// OpenMapped memory-maps path read-only and decodes it in place. Metadata
// is validated eagerly (row maps, column pointers, sparse word rows —
// O(metadata) page faults); the dense slab and sparse word payloads are
// not touched until a query reads them.
func OpenMapped(path string) (*Mapped, error) {
	data, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		munmap(data)
		return nil, err
	}
	return &Mapped{File: f, data: data}, nil
}

// Close unmaps the region. The File and every slice decoded from it are
// invalid afterwards.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	m.File = nil
	return munmap(data)
}

// LoadFile reads the whole index into memory and decodes it — the
// eager-loading alternative to OpenMapped, useful when the index must
// outlive its file or the host cannot mmap.
func LoadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
