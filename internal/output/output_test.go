package output

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
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

// TestWritePairs pins the pair list's bytes: a header row, then one
// (sample_a, sample_b, jaccard) line per pair, named from the run's names,
// with six decimals, in the order given.
func TestWritePairs(t *testing.T) {
	pairs := []tile.Pair{{I: 0, J: 1, Similarity: 0.5}, {I: 0, J: 2, Similarity: 1.0 / 3}, {I: 1, J: 2, Similarity: 0}}
	var buf bytes.Buffer
	if err := WritePairs(&buf, []string{"alpha", "beta", "gamma"}, pairs); err != nil {
		t.Fatal(err)
	}
	const want = "sample_a\tsample_b\tjaccard\n" +
		"alpha\tbeta\t0.500000\n" +
		"alpha\tgamma\t0.333333\n" +
		"beta\tgamma\t0.000000\n"
	if got := buf.String(); got != want {
		t.Errorf("WritePairs wrote\n%q\nwant\n%q", got, want)
	}
}

// WritePHYLIP is the PHYLIP oracle TileWriter's FormatPHYLIP output is
// compared against: it writes a gathered square distance matrix with
// fmt's verbs.
func WritePHYLIP(w io.Writer, names []string, d *sparse.Dense[float64]) error {
	if err := checkMatrix(names, d); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%5d\n", len(names))
	for i, name := range names {
		fmt.Fprintf(bw, "%-10s", phylipName(name))
		for j := 0; j < d.Cols; j++ {
			fmt.Fprintf(bw, " %9.6f", d.At(i, j))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
