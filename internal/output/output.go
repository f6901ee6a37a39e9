// Package output writes the matrices produced by SimilarityAtScale in the
// interchange formats downstream bioinformatics tooling expects, fulfilling
// the paper's goal of "maintaining compatibility with standard
// bioinformatics data formats" so GenomeAtScale results can be "seamlessly
// integrated into existing analysis pipelines":
//
//   - PHYLIP square distance-matrix format, the input of neighbour-joining
//     and other phylogenetics tools,
//   - tab-separated matrices with a header row, convenient for spreadsheets
//     and R/pandas,
//   - a sparse "edge list" of retained sample pairs, useful when only
//     near-duplicate pairs are of interest.
//
// The matrix formats are written by TileWriter, a tile sink that streams
// the matrix row by row as the engine emits it; WriteTSV writes the same
// TSV bytes from a gathered matrix.
package output

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// phylipName shortens a name to the 10-character PHYLIP field and strips
// whitespace that would corrupt the column structure.
func phylipName(name string) string {
	cleaned := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, name)
	if len(cleaned) > 10 {
		return cleaned[:10]
	}
	return cleaned
}

// WriteTSV writes a matrix with a header row and one row label per line.
func WriteTSV(w io.Writer, names []string, m *sparse.Dense[float64]) error {
	if err := checkMatrix(names, m); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "sample\t%s\n", strings.Join(names, "\t"))
	for i, name := range names {
		cells := make([]string, m.Cols)
		for j := 0; j < m.Cols; j++ {
			cells[j] = strconv.FormatFloat(m.At(i, j), 'f', 6, 64)
		}
		fmt.Fprintf(bw, "%s\t%s\n", name, strings.Join(cells, "\t"))
	}
	return bw.Flush()
}

// WritePairs writes retained pairs as a three-column TSV (sampleA,
// sampleB, similarity), naming each sample from names.
func WritePairs(w io.Writer, names []string, pairs []tile.Pair) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "sample_a\tsample_b\tjaccard")
	for _, p := range pairs {
		fmt.Fprintf(bw, "%s\t%s\t%.6f\n", names[p.I], names[p.J], p.Similarity)
	}
	return bw.Flush()
}

func checkMatrix(names []string, m *sparse.Dense[float64]) error {
	if m == nil {
		return fmt.Errorf("output: nil matrix")
	}
	if m.Rows != m.Cols {
		return fmt.Errorf("output: matrix must be square, got %dx%d", m.Rows, m.Cols)
	}
	if len(names) != m.Rows {
		return fmt.Errorf("output: %d names for a %dx%d matrix", len(names), m.Rows, m.Cols)
	}
	return nil
}
