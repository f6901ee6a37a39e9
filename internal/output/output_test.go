package output

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/sparse"
)

func sampleResult(t *testing.T) ([]string, *sparse.Dense[float64], *sparse.Dense[float64]) {
	t.Helper()
	ds := core.MustInMemoryDataset(
		[]string{"alpha", "beta with space", "a-very-long-sample-name"},
		[][]uint64{{1, 2, 3}, {2, 3, 4}, {50}},
		100,
	)
	e, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return res.Names, res.S, res.D
}

func TestWritePHYLIP(t *testing.T) {
	names, _, d := sampleResult(t)
	var buf bytes.Buffer
	if err := WritePHYLIP(&buf, names, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if strings.TrimSpace(lines[0]) != "3" {
		t.Errorf("header line = %q", lines[0])
	}
	// Names are truncated to 10 chars and whitespace replaced.
	if !strings.HasPrefix(lines[2], "beta_with_") {
		t.Errorf("name field = %q", lines[2][:12])
	}
	if !strings.HasPrefix(lines[3], "a-very-lon") {
		t.Errorf("long name not truncated: %q", lines[3][:12])
	}
	// Diagonal distances are zero.
	if !strings.Contains(lines[1], "0.000000") {
		t.Errorf("diagonal missing in %q", lines[1])
	}
	// File variant.
	path := filepath.Join(t.TempDir(), "d.phy")
	if err := WritePHYLIPFile(path, names, d); err != nil {
		t.Fatal(err)
	}
}

func TestWritePHYLIPErrors(t *testing.T) {
	if err := WritePHYLIP(&bytes.Buffer{}, []string{"a"}, nil); err == nil {
		t.Error("nil matrix should error")
	}
	if err := WritePHYLIP(&bytes.Buffer{}, []string{"a"}, sparse.MustDense[float64](2, 2)); err == nil {
		t.Error("name count mismatch should error")
	}
	if err := WritePHYLIP(&bytes.Buffer{}, []string{"a"}, sparse.MustDense[float64](1, 2)); err == nil {
		t.Error("non-square matrix should error")
	}
	if err := WritePHYLIPFile(filepath.Join(t.TempDir(), "missing", "x.phy"), []string{"a"}, sparse.MustDense[float64](1, 1)); err == nil {
		t.Error("unwritable path should error")
	}
}

// TestTSVRoundTrip pins WriteTSV's bytes: a header row of names, then one
// labelled row per sample with six-decimal cells.
func TestTSVRoundTrip(t *testing.T) {
	names, s, _ := sampleResult(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, names, s); err != nil {
		t.Fatal(err)
	}
	const want = "sample\talpha\tbeta with space\ta-very-long-sample-name\n" +
		"alpha\t1.000000\t0.500000\t0.000000\n" +
		"beta with space\t0.500000\t1.000000\t0.000000\n" +
		"a-very-long-sample-name\t0.000000\t0.000000\t1.000000\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTSV wrote\n%q\nwant\n%q", got, want)
	}
}

func TestTopPairsAndWritePairs(t *testing.T) {
	names, s, _ := sampleResult(t)
	pairs, err := TopPairs(names, s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Only (alpha, beta) exceeds 0.1 (J = 0.5); the third sample is disjoint.
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if pairs[0].NameI != "alpha" || math.Abs(pairs[0].Similarity-0.5) > 1e-12 {
		t.Errorf("pair = %+v", pairs[0])
	}
	all, err := TopPairs(names, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("all pairs = %d", len(all))
	}
	// Sorted by decreasing similarity.
	for i := 1; i < len(all); i++ {
		if all[i].Similarity > all[i-1].Similarity {
			t.Error("pairs not sorted")
		}
	}
	var buf bytes.Buffer
	if err := WritePairs(&buf, all); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "sample_a") {
		t.Errorf("pairs output:\n%s", buf.String())
	}
	if _, err := TopPairs([]string{"a"}, s, 0); err == nil {
		t.Error("mismatched names should error")
	}
}
