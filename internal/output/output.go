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
//   - a sparse "edge list" of sample pairs above a similarity threshold,
//     useful when only near-duplicate pairs are of interest.
package output

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"genomeatscale/internal/sparse"
)

// WritePHYLIP writes a square distance matrix in the classic PHYLIP format:
// the sample count on the first line, then one line per sample with the
// (possibly truncated to 10 characters, space-padded) name followed by the
// distances.
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

// WritePHYLIPFile writes a PHYLIP distance matrix to a file.
func WritePHYLIPFile(path string, names []string, d *sparse.Dense[float64]) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("output: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("output: %w", cerr)
		}
	}()
	return WritePHYLIP(f, names, d)
}

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

// Pair is one above-threshold sample pair.
type Pair struct {
	I, J       int
	NameI      string
	NameJ      string
	Similarity float64
}

// TopPairs extracts the sample pairs (i < j) whose similarity is at least
// the threshold, sorted by decreasing similarity.
func TopPairs(names []string, s *sparse.Dense[float64], threshold float64) ([]Pair, error) {
	if err := checkMatrix(names, s); err != nil {
		return nil, err
	}
	var out []Pair
	for i := 0; i < s.Rows; i++ {
		for j := i + 1; j < s.Cols; j++ {
			if v := s.At(i, j); v >= threshold {
				out = append(out, Pair{I: i, J: j, NameI: names[i], NameJ: names[j], Similarity: v})
			}
		}
	}
	// Insertion sort by decreasing similarity (pair lists are short in the
	// intended near-duplicate use case).
	for i := 1; i < len(out); i++ {
		p := out[i]
		j := i - 1
		for j >= 0 && out[j].Similarity < p.Similarity {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = p
	}
	return out, nil
}

// WritePairs writes above-threshold pairs as a three-column TSV
// (sampleA, sampleB, similarity).
func WritePairs(w io.Writer, pairs []Pair) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "sample_a\tsample_b\tjaccard")
	for _, p := range pairs {
		fmt.Fprintf(bw, "%s\t%s\t%.6f\n", p.NameI, p.NameJ, p.Similarity)
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
