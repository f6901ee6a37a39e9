package cliutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/index"
	"genomeatscale/internal/samplefile"
)

// TestIndexWriteReportsLoadError: building the index over a sample
// directory with a corrupt file returns an error naming the sample and
// writes no index; without the corrupt file the same call writes one.
func TestIndexWriteReportsLoadError(t *testing.T) {
	dir := t.TempDir()
	if err := samplefile.WriteText(filepath.Join(dir, "a.txt"), []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := samplefile.WriteBinary(filepath.Join(dir, "c.smp"), []uint64{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(t.TempDir(), "corpus.idx")
	fs := NewFlagSet("test")
	f := BindIndex(fs)
	if err := fs.Parse([]string{"-index-out", idxPath}); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(dir, "broken.txt"), []byte("1\nbogus\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := samplefile.OpenDir(dir, "*", 100)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = f.Write(&out, ds, core.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "sample 1 (broken)") || !strings.Contains(err.Error(), "broken.txt") {
		t.Fatalf("want an error naming sample 1 (broken), got %v", err)
	}
	if _, err := os.Stat(idxPath); !os.IsNotExist(err) {
		t.Errorf("a failed build must write no index (stat: %v)", err)
	}

	if err := os.Remove(filepath.Join(dir, "broken.txt")); err != nil {
		t.Fatal(err)
	}
	ds, err = samplefile.OpenDir(dir, "*", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(&out, ds, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	c, err := index.Open(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Samples() != 2 {
		t.Errorf("index holds %d samples, want 2", c.Samples())
	}
}
