package output

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"genomeatscale/internal/tile"
)

// MatrixFormat selects the file format a TileWriter produces.
type MatrixFormat int

const (
	// FormatTSV is the tab-separated matrix with a header row, identical to
	// WriteTSV output.
	FormatTSV MatrixFormat = iota
	// FormatPHYLIP is the classic PHYLIP square distance matrix: the sample
	// count on the first line, then one line per sample with its name
	// (whitespace replaced, truncated and space-padded to 10 characters)
	// followed by the values. It is conventionally used with
	// MatrixDistance.
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
// as TSV or PHYLIP, writing each output row as soon as it is complete.
// Rows arrive in order from both targets (a local run emits full-width
// row bands, which are written straight from the tile; a grid run emits
// grid blocks sorted by position, which are assembled row by row), so
// the writer holds only the rows of the current row band — never the
// full n×n matrix.
type TileWriter struct {
	w      io.Writer
	format MatrixFormat
	field  MatrixField

	bw      *bufio.Writer
	names   []string
	n       int
	next    int // first row not yet written
	pending map[int]*pendingRow
	line    []byte // the row being formatted
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
	case FormatPHYLIP:
		_, err := fmt.Fprintf(tw.bw, "%5d\n", n)
		return err
	}
	return fmt.Errorf("output: unknown tile-writer format %d", tw.format)
}

// Emit writes the tile's rows that are complete and next in order, folds
// the others into the pending rows, and then writes every pending row
// that became complete, in order.
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
		src := vals[i*t.Cols : (i+1)*t.Cols]
		pr := tw.pending[row]
		if pr == nil && row == tw.next && t.ColLo == 0 && t.Cols == tw.n {
			if err := tw.writeRow(row, src); err != nil {
				return err
			}
			tw.next++
			continue
		}
		if pr == nil {
			pr = &pendingRow{vals: make([]float64, tw.n)}
			tw.pending[row] = pr
		}
		copy(pr.vals[t.ColLo:t.ColLo+t.Cols], src)
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

// writeRow formats one labelled row into the reused line buffer and
// writes it (Start has rejected any format but TSV and PHYLIP). Cells are
// strconv's six-decimal 'f' form, the bytes WriteTSV and a " %9.6f" verb
// produce.
func (tw *TileWriter) writeRow(row int, vals []float64) error {
	line := tw.line[:0]
	if tw.format == FormatPHYLIP {
		name := phylipName(tw.names[row])
		line = append(line, name...)
		for k := utf8.RuneCountInString(name); k < 10; k++ {
			line = append(line, ' ')
		}
		var cell [32]byte
		for _, v := range vals {
			// " %9.6f": a space, then c right-aligned in nine columns.
			c := strconv.AppendFloat(cell[:0], v, 'f', 6, 64)
			for k := min(len(c), 9); k < 10; k++ {
				line = append(line, ' ')
			}
			line = append(line, c...)
		}
	} else {
		line = append(line, tw.names[row]...)
		for _, v := range vals {
			line = append(line, '\t')
			line = strconv.AppendFloat(line, v, 'f', 6, 64)
		}
	}
	line = append(line, '\n')
	tw.line = line
	_, err := tw.bw.Write(line)
	return err
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
