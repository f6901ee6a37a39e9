package cliutil

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// checkPprof fails t unless path holds a non-empty gzip stream, the
// container of the pprof format.
func checkPprof(t *testing.T, path string) {
	t.Helper()
	fl, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	zr, err := gzip.NewReader(fl)
	if err != nil {
		t.Fatalf("%s: not gzip: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("%s: %d decompressed bytes, err %v", path, len(body), err)
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fs := NewFlagSet("test")
	f := BindProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	checkPprof(t, cpu)
	checkPprof(t, mem)
}

func TestProfileFlagsUnsetWriteNothing(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	fs := NewFlagSet("test")
	f := BindProfile(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("unset profiling flags left %d files (err %v)", len(entries), err)
	}
}

func TestProfileFlagsBadPath(t *testing.T) {
	fs := NewFlagSet("test")
	f := BindProfile(fs)
	bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start must fail on an uncreatable -cpuprofile path")
	}
}
