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

func TestTSVRoundTrip(t *testing.T) {
	names, s, _ := sampleResult(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, names, s); err != nil {
		t.Fatal(err)
	}
	gotNames, m, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNames) != len(names) {
		t.Fatalf("names = %v", gotNames)
	}
	for i := range names {
		if gotNames[i] != names[i] {
			t.Errorf("name %d = %q", i, gotNames[i])
		}
		for j := range names {
			if math.Abs(m.At(i, j)-s.At(i, j)) > 1e-6 {
				t.Errorf("(%d,%d) = %v, want %v", i, j, m.At(i, j), s.At(i, j))
			}
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong\theader\n",
		"sample\ta\tb\na\t0.5\n", // short row
		"sample\ta\tb\nwrong\t1.0\t0.5\nb\t0.5\t1.0\n", // bad row label
		"sample\ta\tb\na\t1.0\tx\nb\t0.5\t1.0\n",       // bad number
		"sample\ta\nb\t1.0\n",                          // label mismatch
		"sample\ta\na\t1.0\nextra\t0.5\n",              // too many rows
		"sample\ta\tb\na\t1.0\t0.5\n",                  // too few rows
	}
	for i, in := range cases {
		if _, _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should error", i)
		}
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
