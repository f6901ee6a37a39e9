package cliutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	genomeatscale "genomeatscale"
	"genomeatscale/internal/core"
	"genomeatscale/internal/output"
	"genomeatscale/internal/sparse"
)

func TestBindComputeDefaultsMatchPaper(t *testing.T) {
	fs := NewFlagSet("test")
	f := BindCompute(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts := f.Options()
	def := genomeatscale.DefaultOptions()
	def.Workers = 0
	if opts.BatchCount != def.BatchCount || opts.MaskBits != def.MaskBits ||
		opts.Procs != def.Procs || opts.Replication != def.Replication {
		t.Errorf("flag defaults %+v diverge from DefaultOptions %+v", opts, def)
	}
	if f.PairSink() != nil {
		t.Error("defaults must not select streaming mode")
	}
	if _, err := core.NewEngine(opts); err != nil {
		t.Fatal(err)
	}
}

// TestPairSinkTopKAndThreshold streams into the sink -top-k/-threshold
// select and checks the named pairs: the best ones first, and with both
// flags only the top-k pairs at or above the threshold.
func TestPairSinkTopKAndThreshold(t *testing.T) {
	ds, err := genomeatscale.NewDataset(
		[]string{"a", "b", "c"},
		[][]uint64{{1, 2, 3, 4}, {1, 2, 3, 5}, {50, 51}},
		100,
	)
	if err != nil {
		t.Fatal(err)
	}
	// solve runs the flags' pair sink on a two-rank grid and returns its
	// pairs, named.
	solve := func(args ...string) []string {
		t.Helper()
		fs := NewFlagSet("test")
		f := BindCompute(fs)
		if err := fs.Parse(append([]string{"-procs", "2"}, args...)); err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(f.Options())
		if err != nil {
			t.Fatal(err)
		}
		sink := f.PairSink()
		res, err := e.Stream(context.Background(), ds, sink)
		if err != nil {
			t.Fatal(err)
		}
		var named []string
		for _, p := range f.Pairs(sink) {
			named = append(named, fmt.Sprintf("%s-%s %.1f", res.Names[p.I], res.Names[p.J], p.Similarity))
		}
		return named
	}
	pairs := solve("-top-k", "2")
	// The best pairs first, ties by sample index.
	if want := []string{"a-b 0.6", "a-c 0.0"}; !slices.Equal(pairs, want) {
		t.Errorf("-top-k 2 kept %q, want %q", pairs, want)
	}
	// Adding a threshold on top of -top-k filters the retained pairs.
	if pairs, want := solve("-top-k", "3", "-threshold", "0.5"), []string{"a-b 0.6"}; !slices.Equal(pairs, want) {
		t.Errorf("-top-k 3 -threshold 0.5 kept %q, want %q", pairs, want)
	}
	if pairs, want := solve("-threshold", "0"), []string{"a-b 0.6", "a-c 0.0", "b-c 0.0"}; !slices.Equal(pairs, want) {
		t.Errorf("-threshold 0 kept %q, want %q", pairs, want)
	}
}

// TestSinksFinish checks that Finish moves the files of a successful run
// into place, that after a failed run it removes them and leaves an
// earlier file at the path as it was, and that a second call does nothing.
func TestSinksFinish(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.tsv"), filepath.Join(dir, "b.phy")
	solve := func(runErr error) error {
		before, _ := os.ReadFile(a)
		var s Sinks
		if err := s.AddFile(a, output.FormatTSV, output.MatrixSimilarity); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFile(b, output.FormatPHYLIP, output.MatrixDistance); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFile("", output.FormatTSV, output.MatrixDistance); err != nil {
			t.Fatal(err)
		}
		if now, _ := os.ReadFile(a); !bytes.Equal(now, before) {
			t.Fatalf("AddFile touched %s before the run ended", a)
		}
		err := s.Finish(runErr)
		if again := s.Finish(nil); again != nil {
			t.Errorf("a second Finish returned %v", again)
		}
		return err
	}
	if err := solve(nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, []byte("earlier"), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("run failed")
	if err := solve(failed); err != failed {
		t.Fatalf("Finish(err) = %v, want the run's error", err)
	}
	if got, err := os.ReadFile(a); err != nil || string(got) != "earlier" {
		t.Errorf("failed run changed the earlier %s: %q, %v", a, got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "a.tsv" || entries[1].Name() != "b.phy" {
		t.Errorf("directory holds %v, want only a.tsv and b.phy", entries)
	}
	if err := new(Sinks).AddFile(filepath.Join(dir, "missing-dir", "x.tsv"), output.FormatTSV, output.MatrixSimilarity); err == nil {
		t.Error("unwritable path should error")
	}
}

func TestAutoFlagPinsExplicitFlags(t *testing.T) {
	fs := NewFlagSet("test")
	f := BindCompute(fs)
	if err := fs.Parse([]string{"-auto", "-batches", "3", "-mask-bits", "32"}); err != nil {
		t.Fatal(err)
	}
	opts := f.Options()
	if !opts.Autotune {
		t.Fatal("-auto did not enable autotuning")
	}
	if !opts.IsExplicit(core.FieldBatchCount) || !opts.IsExplicit(core.FieldMaskBits) {
		t.Error("flags passed on the command line must be marked explicit")
	}
	if opts.IsExplicit(core.FieldProcs) || opts.IsExplicit(core.FieldDenseThreshold) {
		t.Error("flags left at their defaults must not be marked explicit")
	}

	// Without -auto no tuning, but explicit marks are still recorded (they
	// are inert).
	fs2 := NewFlagSet("test")
	f2 := BindCompute(fs2)
	if err := fs2.Parse([]string{"-procs", "4"}); err != nil {
		t.Fatal(err)
	}
	opts2 := f2.Options()
	if opts2.Autotune {
		t.Error("autotuning on without -auto")
	}
	if !opts2.IsExplicit(core.FieldProcs) {
		t.Error("-procs not marked explicit")
	}
}

func TestPrintTuning(t *testing.T) {
	var buf bytes.Buffer
	PrintTuning(&buf, nil)
	if buf.Len() != 0 {
		t.Error("nil report must print nothing")
	}
	rep := &core.TuningReport{
		Machine:        "test-host",
		SampledColumns: 8,
		Pinned:         []string{"batches"},
	}
	rep.Plan.Procs = 1
	rep.Plan.Batches = 3
	PrintTuning(&buf, rep)
	s := buf.String()
	for _, want := range []string{"test-host", "procs=1", "batches=3", "pinned: batches"} {
		if !strings.Contains(s, want) {
			t.Errorf("tuning report output missing %q:\n%s", want, s)
		}
	}
}

func TestTruncate(t *testing.T) {
	if Truncate("abcdef", 3) != "abc" {
		t.Error("Truncate wrong")
	}
	if Truncate("ab", 3) != "ab" {
		t.Error("Truncate of short string wrong")
	}
}

func TestPrintMatrix(t *testing.T) {
	m := sparse.MustDense[float64](2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 0.5)
	m.Set(1, 0, 0.5)
	m.Set(1, 1, 1)
	var buf bytes.Buffer
	PrintMatrix(&buf, []string{"alpha", "beta"}, m)
	if !strings.Contains(buf.String(), "0.5000") {
		t.Errorf("printed matrix missing values:\n%s", buf.String())
	}
}
