package output

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"genomeatscale/internal/tile"
)

// MatrixFormat selects the file format a TileWriter produces.
type MatrixFormat int

const (
	// FormatTSV is the tab-separated matrix with a header row, identical to
	// WriteTSV output.
	FormatTSV MatrixFormat = iota
	// FormatCSV is the comma-separated variant of FormatTSV.
	FormatCSV
	// FormatPHYLIP is the classic PHYLIP square matrix, identical to
	// WritePHYLIP output; it is conventionally used with MatrixDistance.
	FormatPHYLIP
)

// MatrixField selects which matrix of the streamed result a TileWriter
// serialises.
type MatrixField int

const (
	// MatrixSimilarity writes the Jaccard similarity values S.
	MatrixSimilarity MatrixField = iota
	// MatrixDistance writes the Jaccard distance values D = 1 − S.
	MatrixDistance
)

// TileWriter is a tile sink that serialises one matrix of a streaming run
// as CSV, TSV or PHYLIP, writing each output row as soon as it is
// complete. Rows arrive in order from both targets (a local run emits
// full-width row bands, a grid run emits grid blocks sorted by
// position), so the writer holds only the rows of the current
// row band — never the full n×n matrix. The byte output is identical to
// running WriteTSV / WritePHYLIP on the gathered matrix.
type TileWriter struct {
	w      io.Writer
	format MatrixFormat
	field  MatrixField

	bw      *bufio.Writer
	names   []string
	n       int
	next    int // first row not yet written
	pending map[int]*pendingRow
}

type pendingRow struct {
	vals   []float64
	filled int
}

// NewTileWriter returns a tile sink writing the selected matrix to w in
// the given format. The caller keeps ownership of w; the writer's buffer
// is flushed by Flush, which the engine invokes at the end of a successful
// run.
func NewTileWriter(w io.Writer, format MatrixFormat, field MatrixField) *TileWriter {
	return &TileWriter{w: w, format: format, field: field}
}

// Start writes the header once the run's dimensions are known.
func (tw *TileWriter) Start(n int, names []string) error {
	tw.bw = bufio.NewWriter(tw.w)
	tw.n = n
	tw.names = append([]string(nil), names...)
	tw.next = 0
	tw.pending = make(map[int]*pendingRow)
	switch tw.format {
	case FormatTSV:
		_, err := fmt.Fprintf(tw.bw, "sample\t%s\n", strings.Join(tw.names, "\t"))
		return err
	case FormatCSV:
		_, err := fmt.Fprintf(tw.bw, "sample,%s\n", strings.Join(tw.names, ","))
		return err
	case FormatPHYLIP:
		_, err := fmt.Fprintf(tw.bw, "%5d\n", n)
		return err
	}
	return fmt.Errorf("output: unknown tile-writer format %d", tw.format)
}

// Emit folds a tile into the pending rows and writes every row that became
// complete, in order.
func (tw *TileWriter) Emit(t *tile.Tile) error {
	if tw.bw == nil {
		return fmt.Errorf("output: TileWriter.Emit before Start")
	}
	vals := t.S
	if tw.field == MatrixDistance {
		vals = t.D
	}
	for i := 0; i < t.Rows; i++ {
		row := t.RowLo + i
		if row < tw.next {
			return fmt.Errorf("output: tile revisits already-written row %d", row)
		}
		pr := tw.pending[row]
		if pr == nil {
			pr = &pendingRow{vals: make([]float64, tw.n)}
			tw.pending[row] = pr
		}
		copy(pr.vals[t.ColLo:t.ColLo+t.Cols], vals[i*t.Cols:(i+1)*t.Cols])
		pr.filled += t.Cols
		if pr.filled > tw.n {
			return fmt.Errorf("output: row %d received overlapping tiles", row)
		}
	}
	for {
		pr := tw.pending[tw.next]
		if pr == nil || pr.filled != tw.n {
			return nil
		}
		if err := tw.writeRow(tw.next, pr.vals); err != nil {
			return err
		}
		delete(tw.pending, tw.next)
		tw.next++
	}
}

func (tw *TileWriter) writeRow(row int, vals []float64) error {
	switch tw.format {
	case FormatTSV, FormatCSV:
		sep := "\t"
		if tw.format == FormatCSV {
			sep = ","
		}
		cells := make([]string, len(vals))
		for j, v := range vals {
			cells[j] = strconv.FormatFloat(v, 'f', 6, 64)
		}
		_, err := fmt.Fprintf(tw.bw, "%s%s%s\n", tw.names[row], sep, strings.Join(cells, sep))
		return err
	case FormatPHYLIP:
		if _, err := fmt.Fprintf(tw.bw, "%-10s", phylipName(tw.names[row])); err != nil {
			return err
		}
		for _, v := range vals {
			if _, err := fmt.Fprintf(tw.bw, " %9.6f", v); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(tw.bw)
		return err
	}
	return fmt.Errorf("output: unknown tile-writer format %d", tw.format)
}

// Flush verifies every row was written and flushes the buffer.
func (tw *TileWriter) Flush() error {
	if tw.bw == nil {
		return fmt.Errorf("output: TileWriter.Flush before Start")
	}
	if tw.next != tw.n {
		return fmt.Errorf("output: run ended with %d of %d rows written", tw.next, tw.n)
	}
	return tw.bw.Flush()
}
