package indexfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"genomeatscale/internal/bitmat"
)

// crashFS is an in-memory filesystem for the crash-point tests. Per file it
// keeps the bytes the running process sees (live), the bytes that survive a
// power cut (disk: a copy of live taken at each Sync) and the one write made
// since; per directory entry it keeps the name the process sees and the
// name that survives (copied at each SyncDir). Every mutating call is
// numbered. The call numbered failAt fails — a write having landed its
// first half — and with crash set every later call fails too, without
// effect, like a process that died there.
type crashFS struct {
	live, disk map[string]*inode
	failAt     int
	crash      bool

	ops  []string // the mutating calls so far, by name
	dead bool
}

type inode struct {
	live, disk []byte
	last       *positioned // the latest write since the last Sync
}

type positioned struct {
	off  int64
	data []byte
}

func (p *positioned) applyTo(b []byte) []byte {
	b = bytes.Clone(b)
	if need := int(p.off) + len(p.data); need > len(b) {
		b = append(b, make([]byte, need-len(b))...)
	}
	copy(b[p.off:], p.data)
	return b
}

var (
	errInjected = errors.New("injected fault")
	errDead     = errors.New("the process is gone")
)

// newCrashFS returns a filesystem that never fails, holding the given
// files durably.
func newCrashFS(files map[string][]byte) *crashFS {
	fs := &crashFS{live: map[string]*inode{}, disk: map[string]*inode{}, failAt: -1}
	for name, data := range files {
		ino := &inode{live: bytes.Clone(data), disk: bytes.Clone(data)}
		fs.live[name], fs.disk[name] = ino, ino
	}
	return fs
}

func (fs *crashFS) step(what string) error {
	if fs.dead {
		return errDead
	}
	fs.ops = append(fs.ops, what)
	if len(fs.ops)-1 == fs.failAt {
		fs.dead = fs.crash
		return errInjected
	}
	return nil
}

func (fs *crashFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	if err := fs.step("open " + name); err != nil {
		return nil, err
	}
	ino := fs.live[name]
	if ino == nil {
		if flag&os.O_CREATE == 0 {
			return nil, os.ErrNotExist
		}
		ino = &inode{}
		fs.live[name] = ino
	}
	if flag&os.O_TRUNC != 0 {
		ino.live = nil
	}
	return &handle{fs: fs, ino: ino, name: name}, nil
}

func (fs *crashFS) Rename(oldpath, newpath string) error {
	if err := fs.step("rename"); err != nil {
		return err
	}
	ino := fs.live[oldpath]
	if ino == nil {
		return os.ErrNotExist
	}
	fs.live[newpath] = ino
	delete(fs.live, oldpath)
	return nil
}

func (fs *crashFS) Remove(name string) error {
	if err := fs.step("remove " + name); err != nil {
		return err
	}
	if fs.live[name] == nil {
		return os.ErrNotExist
	}
	delete(fs.live, name)
	return nil
}

func (fs *crashFS) SyncDir(string) error {
	if err := fs.step("syncdir"); err != nil {
		return err
	}
	fs.disk = map[string]*inode{}
	for name, ino := range fs.live {
		fs.disk[name] = ino
	}
	return nil
}

type handle struct {
	fs   *crashFS
	ino  *inode
	name string
}

func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(h.ino.live)) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.live[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *handle) Seek(offset int64, whence int) (int64, error) {
	if offset != 0 || whence != io.SeekEnd {
		return 0, errors.New("crashFS: only Seek(0, io.SeekEnd) is supported")
	}
	return int64(len(h.ino.live)), nil
}

func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	err := h.fs.step(fmt.Sprintf("write %s %d@%d", h.name, len(p), off))
	if err == errDead {
		return 0, err
	}
	if err != nil {
		p = p[:len(p)/2] // the failing write lands its first half
	}
	w := &positioned{off: off, data: bytes.Clone(p)}
	h.ino.live = w.applyTo(h.ino.live)
	h.ino.last = w
	return len(p), err
}

func (h *handle) Truncate(size int64) error {
	if err := h.fs.step("truncate " + h.name); err != nil {
		return err
	}
	if size < int64(len(h.ino.live)) {
		h.ino.live = h.ino.live[:size]
	} else {
		h.ino.live = append(h.ino.live, make([]byte, size-int64(len(h.ino.live)))...)
	}
	return nil
}

func (h *handle) Sync() error {
	if err := h.fs.step("sync " + h.name); err != nil {
		return err
	}
	h.ino.disk = bytes.Clone(h.ino.live)
	h.ino.last = nil
	return nil
}

func (h *handle) Close() error { return h.fs.step("close " + h.name) }

// state is one thing a reboot could find under a name.
type state struct {
	what string
	data []byte // nil when the name does not exist
}

// after lists what a crash at this moment could leave under name: either
// directory view (entries synced or not) crossed with the file's bytes as
// written, as last synced, and as last synced plus only the latest
// unsynced write — a later write reaching the platter before an earlier
// one is what an ordering bug looks like.
func (fs *crashFS) after(name string) []state {
	var out []state
	for _, dir := range []struct {
		what    string
		entries map[string]*inode
	}{{"entries as written", fs.live}, {"entries as synced", fs.disk}} {
		ino := dir.entries[name]
		if ino == nil {
			out = append(out, state{dir.what + ", no file", nil})
			continue
		}
		out = append(out,
			state{dir.what + ", bytes as written", bytes.Clone(ino.live)},
			state{dir.what + ", bytes as synced", bytes.Clone(ino.disk)})
		if ino.last != nil {
			out = append(out, state{dir.what + ", synced bytes plus the latest write", ino.last.applyTo(ino.disk)})
		}
	}
	return out
}

// canonical decodes an index image and re-encodes what it publishes, so an
// unpublished tail does not count as a difference.
func canonical(t *testing.T, what string, data []byte) []byte {
	t.Helper()
	f, err := Decode(bytes.Clone(data))
	if err != nil {
		t.Fatalf("%s: surviving index does not open: %v", what, err)
	}
	return encode(t, f)
}

const crashPath = "dir/corpus.idx"

// forEachFault runs op once to count its mutating calls, then again with
// each call in turn failing — once as a returned error the caller lives to
// clean up after, once as a crash — and hands every possible surviving
// image of crashPath to check.
func forEachFault(t *testing.T, files map[string][]byte, op func(fs filesystem) error, check func(what string, survived []byte)) {
	t.Helper()
	clean := newCrashFS(files)
	if err := op(clean); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	for failAt := range clean.ops {
		for _, crash := range []bool{false, true} {
			fs := newCrashFS(files)
			fs.failAt, fs.crash = failAt, crash
			err := op(fs)
			what := fmt.Sprintf("%q failing (crash=%v)", clean.ops[failAt], crash)
			if err == nil {
				t.Fatalf("%s: the operation reported success", what)
			}
			if !crash {
				for name := range fs.live {
					if strings.HasSuffix(name, ".tmp") {
						t.Fatalf("%s: %s left behind after a reported failure", what, name)
					}
				}
			}
			for _, st := range fs.after(crashPath) {
				check(what+": "+st.what, st.data)
			}
		}
	}
}

// TestWriteFileCrashPoints: whichever open, write, sync, close, rename or
// directory sync of WriteFile fails or is the last thing the process does,
// the path holds exactly the previous file or exactly the new one — with
// and without a previous file, and with a stale path.tmp in the way.
func TestWriteFileCrashPoints(t *testing.T) {
	oldBytes := encode(t, fixtureFile(t, 4))
	next := &File{B: 64, SketchK: 4, Segments: []*Segment{bigSegment(t, 4)}}
	newBytes := encode(t, next)
	for name, files := range map[string]map[string][]byte{
		"fresh path":    {},
		"existing file": {crashPath: oldBytes},
		"stale tmp":     {crashPath: oldBytes, crashPath + ".tmp": newBytes[:len(newBytes)/3]},
	} {
		prev := files[crashPath]
		forEachFault(t, files,
			func(fs filesystem) error { return writeFile(fs, crashPath, next) },
			func(what string, survived []byte) {
				if !bytes.Equal(survived, prev) && !bytes.Equal(survived, newBytes) {
					t.Fatalf("%s, %s: %d bytes survive that are neither the previous file (%d) nor the new one (%d)",
						name, what, len(survived), len(prev), len(newBytes))
				}
			})
		fs := newCrashFS(files)
		if err := writeFile(fs, crashPath, next); err != nil {
			t.Fatalf("%s: writeFile: %v", name, err)
		}
		if fs.live[crashPath+".tmp"] != nil || !bytes.Equal(fs.disk[crashPath].disk, newBytes) {
			t.Fatalf("%s: after a clean write the new file is not durable under its name alone", name)
		}
		if writes := countOps(fs, "write "); writes > len(newBytes)/writerBufSize+1 {
			t.Fatalf("%s: %d writes for a %d-byte index", name, writes, len(newBytes))
		}
	}
}

func countOps(fs *crashFS, prefix string) int {
	n := 0
	for _, op := range fs.ops {
		if strings.HasPrefix(op, prefix) {
			n++
		}
	}
	return n
}

// TestAppendSegmentCrashPoints: whichever call of AppendSegment fails or is
// the last, the file opens as exactly the old corpus or exactly the old
// corpus plus the segment, and a later append onto whatever survived
// publishes cleanly — from a file that ends at its consistent end and from
// one carrying an orphaned tail.
func TestAppendSegmentCrashPoints(t *testing.T) {
	for _, sketchK := range []int{0, 4} {
		base := fixtureFile(t, sketchK)
		extra := buildSegment(t, [][]uint64{{9, 10, 11}}, []string{"late"}, sketchK, bitmat.DenseAuto)
		later := buildSegment(t, [][]uint64{{1, 9, 500}}, []string{"later"}, sketchK, bitmat.DenseNever)
		grown := func(f *File, seg *Segment) *File {
			return &File{B: f.B, SketchK: f.SketchK, Segments: append(append([]*Segment{}, f.Segments...), seg)}
		}
		oldBytes := encode(t, base)
		newBytes := encode(t, grown(base, extra))
		orphan := newBytes[len(oldBytes) : len(oldBytes)+(len(newBytes)-len(oldBytes))/2]
		for name, image := range map[string][]byte{
			"consistent end": oldBytes,
			"orphaned tail":  append(bytes.Clone(oldBytes), orphan...),
		} {
			files := map[string][]byte{crashPath: image}
			forEachFault(t, files,
				func(fs filesystem) error { return appendSegment(fs, crashPath, extra, 64, sketchK) },
				func(what string, survived []byte) {
					what = fmt.Sprintf("k=%d %s, %s", sketchK, name, what)
					got := canonical(t, what, survived)
					state := base
					switch {
					case bytes.Equal(got, newBytes):
						state = grown(base, extra)
					case !bytes.Equal(got, oldBytes):
						t.Fatalf("%s: the surviving index is neither the old corpus nor the old corpus plus the segment", what)
					}
					fs := newCrashFS(map[string][]byte{crashPath: survived})
					if err := appendSegment(fs, crashPath, later, 64, sketchK); err != nil {
						t.Fatalf("%s: appending onto the survivor: %v", what, err)
					}
					if !bytes.Equal(fs.live[crashPath].live, encode(t, grown(state, later))) {
						t.Fatalf("%s: appending onto the survivor does not give survivor plus segment", what)
					}
				})

			// The clean path: one write for the segment and one for the
			// count, and a truncate only when there is a tail to drop.
			fs := newCrashFS(files)
			if err := appendSegment(fs, crashPath, extra, 64, sketchK); err != nil {
				t.Fatalf("%s: appendSegment: %v", name, err)
			}
			if !bytes.Equal(fs.disk[crashPath].disk, newBytes) {
				t.Fatalf("%s: after a clean append the durable bytes are not the rebuilt file's", name)
			}
			wantTruncates := 0
			if name == "orphaned tail" {
				wantTruncates = 1
			}
			if writes, truncs := countOps(fs, "write "), countOps(fs, "truncate "); writes != 2 || truncs != wantTruncates {
				t.Fatalf("%s: %d writes and %d truncates (%v), want 2 and %d", name, writes, truncs, fs.ops, wantTruncates)
			}
		}
	}
}

// TestAppendedSegmentCutAtEveryWord cuts an appended-but-unpublished
// segment at every 8-byte offset: the file opens as exactly the old corpus
// each time, and the next append lands exactly the rebuilt file.
func TestAppendedSegmentCutAtEveryWord(t *testing.T) {
	for _, sketchK := range []int{0, 4} {
		base := fixtureFile(t, sketchK)
		extra := buildSegment(t, [][]uint64{{9, 10, 11}}, []string{"late"}, sketchK, bitmat.DenseAuto)
		oldBytes := encode(t, base)
		newBytes := encode(t, &File{B: 64, SketchK: sketchK, Segments: append(append([]*Segment{}, base.Segments...), extra)})
		for cut := len(oldBytes); cut <= len(newBytes); cut += 8 {
			// The count in newBytes is published; the cut file still carries the old one.
			image := append(bytes.Clone(oldBytes), newBytes[len(oldBytes):cut]...)
			what := fmt.Sprintf("k=%d cut at %d of %d", sketchK, cut-len(oldBytes), len(newBytes)-len(oldBytes))
			if !bytes.Equal(canonical(t, what, image), oldBytes) {
				t.Fatalf("%s: the file does not open as the old corpus", what)
			}
			fs := newCrashFS(map[string][]byte{crashPath: image})
			if err := appendSegment(fs, crashPath, extra, 64, sketchK); err != nil {
				t.Fatalf("%s: appendSegment: %v", what, err)
			}
			if !bytes.Equal(fs.live[crashPath].live, newBytes) {
				t.Fatalf("%s: the re-appended file differs from the rebuilt one", what)
			}
		}
	}
}

// TestWriteFileReplacesAtomically drives the real filesystem once: an
// existing index and a stale path.tmp are replaced, nothing is left beside
// the file, and a mapping of the old file stays readable because the old
// bytes were never overwritten in place.
func TestWriteFileReplacesAtomically(t *testing.T) {
	path := t.TempDir() + "/idx"
	old := fixtureFile(t, 4)
	if err := WriteFile(path, old); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if err := os.WriteFile(path+".tmp", []byte("left by a crashed write"), 0o644); err != nil {
		t.Fatal(err)
	}
	next := &File{B: 64, SketchK: 4, Segments: old.Segments[:1]}
	if err := WriteFile(path, next); err != nil {
		t.Fatalf("WriteFile over an existing index: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("path.tmp still present after a successful write (stat error %v)", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	checkEqual(t, got, next)
	checkEqual(t, m.File, old)
}
