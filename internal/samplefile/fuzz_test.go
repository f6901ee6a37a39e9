package samplefile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadBinary feeds arbitrary bytes to the binary sample reader. The
// reader must never panic or allocate proportionally to an untrusted
// header (the corrupt-header survival the ingestion layer depends on), and
// anything it does accept must be a strictly increasing value list that
// round-trips through WriteBinary.
func FuzzReadBinary(f *testing.F) {
	// Seed 1: a well-formed file.
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.smp")
	if err := WriteBinary(valid, []uint64{0, 3, 7, 1 << 40}); err != nil {
		f.Fatal(err)
	}
	validBytes, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validBytes)
	// Seed 2: valid magic, header claiming ~10^18 values with none behind
	// it — the header that used to drive a huge preallocation.
	huge := append([]byte{}, binaryMagic[:]...)
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], 1<<60)
	f.Add(append(huge, buf[:n]...))
	// Seed 3: truncated value stream.
	f.Add(append(append([]byte{}, binaryMagic[:]...), 0x05, 0x01))
	// Seed 4: non-monotone deltas are impossible in the encoding, but an
	// overflowing delta wraps — the reader must reject the wrap.
	wrap := append(append([]byte{}, binaryMagic[:]...), 0x02, 0x01)
	n = binary.PutUvarint(buf[:], 1<<64-1)
	f.Add(append(wrap, buf[:n]...))
	// Seed 5: not a sample file at all.
	f.Add([]byte("12\n34\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := decodeBinary("fuzz.smp", data)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] <= vals[i-1] {
				t.Fatalf("accepted non-increasing values: vals[%d]=%d, vals[%d]=%d",
					i-1, vals[i-1], i, vals[i])
			}
		}
		// Round-trip: what the reader accepted must re-encode and re-read
		// to the same values.
		again := filepath.Join(t.TempDir(), "again.smp")
		if err := WriteBinary(again, vals); err != nil {
			t.Fatalf("re-encoding accepted values failed: %v", err)
		}
		got, err := Read(again)
		if err != nil {
			t.Fatalf("re-reading round-tripped file failed: %v", err)
		}
		if len(got) != len(vals) {
			t.Fatalf("round trip changed length: %d -> %d", len(vals), len(got))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("round trip changed value %d: %d -> %d", i, vals[i], got[i])
			}
		}
	})
}

// TestReadSniffShortAndUnreadable locks in the Read magic-sniffing fix: a
// file shorter than the magic is text, a file starting with exactly the
// magic prefix but holding text is rejected by the binary parser (not
// silently misread), and the sniff error path reports failures.
func TestReadSniffShortAndUnreadable(t *testing.T) {
	dir := t.TempDir()
	short := filepath.Join(dir, "short.txt")
	os.WriteFile(short, []byte("5\n"), 0o644)
	vals, err := Read(short)
	if err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Errorf("short text file: %v, %v", vals, err)
	}
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, nil, 0o644)
	if vals, err := Read(empty); err != nil || len(vals) != 0 {
		t.Errorf("empty file: %v, %v", vals, err)
	}
	magicOnly := filepath.Join(dir, "magic.smp")
	os.WriteFile(magicOnly, binaryMagic[:], 0o644)
	if _, err := Read(magicOnly); err == nil {
		t.Error("magic with no header must error, not misdetect")
	}
}

// TestReadBinaryHeaderBombRejected locks in the preallocation cap: a tiny
// file claiming 2^60 values must be rejected up front.
func TestReadBinaryHeaderBombRejected(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], 1<<60)
	data := append(append([]byte{}, binaryMagic[:]...), buf[:n]...)
	path := filepath.Join(t.TempDir(), "bomb.smp")
	os.WriteFile(path, data, 0o644)
	_, err := Read(path)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("corrupt")) {
		t.Errorf("header bomb: err = %v, want corrupt-file rejection", err)
	}
}
