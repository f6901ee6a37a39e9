package output

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// blockTiles cuts the matrices into a 2D block tiling (the distributed
// emission shape) sorted by (RowLo, ColLo), as the engine delivers them.
func blockTiles(s, d *sparse.Dense[float64], tileRows, tileCols int) []*tile.Tile {
	n := s.Rows
	var tiles []*tile.Tile
	for rlo := 0; rlo < n; rlo += tileRows {
		rhi := min(rlo+tileRows, n)
		for clo := 0; clo < n; clo += tileCols {
			chi := min(clo+tileCols, n)
			t := &tile.Tile{RowLo: rlo, ColLo: clo, Rows: rhi - rlo, Cols: chi - clo}
			for i := rlo; i < rhi; i++ {
				for j := clo; j < chi; j++ {
					t.B = append(t.B, int64(i+j))
					t.S = append(t.S, s.At(i, j))
					t.D = append(t.D, d.At(i, j))
				}
			}
			tiles = append(tiles, t)
		}
	}
	sort.Slice(tiles, func(i, j int) bool {
		if tiles[i].RowLo != tiles[j].RowLo {
			return tiles[i].RowLo < tiles[j].RowLo
		}
		return tiles[i].ColLo < tiles[j].ColLo
	})
	return tiles
}

func randomMatrices(rng *rand.Rand, n int) (names []string, s, d *sparse.Dense[float64]) {
	s = sparse.MustDense[float64](n, n)
	d = sparse.MustDense[float64](n, n)
	for i := 0; i < n; i++ {
		names = append(names, strings.Repeat("ab", i%4)+"sample"+string(rune('a'+i%26)))
		s.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, 1-s.At(i, j))
		}
	}
	return names, s, d
}

func runSink(t *testing.T, sink tile.Sink, n int, names []string, tiles []*tile.Tile) {
	t.Helper()
	if err := tile.Start(sink, n, names); err != nil {
		t.Fatal(err)
	}
	for _, tl := range tiles {
		if err := sink.Emit(tl); err != nil {
			t.Fatal(err)
		}
	}
	if err := tile.Flush(sink); err != nil {
		t.Fatal(err)
	}
}

func TestTileWriterMatchesBatchWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 13
	names, s, d := randomMatrices(rng, n)
	for _, tiling := range [][2]int{{3, n}, {4, 5}, {1, 1}} {
		tiles := blockTiles(s, d, tiling[0], tiling[1])

		var streamed bytes.Buffer
		runSink(t, NewTileWriter(&streamed, FormatTSV, MatrixSimilarity), n, names, tiles)
		var batch bytes.Buffer
		if err := WriteTSV(&batch, names, s); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != batch.String() {
			t.Fatalf("tiling %v: TSV stream differs from WriteTSV", tiling)
		}

		streamed.Reset()
		runSink(t, NewTileWriter(&streamed, FormatPHYLIP, MatrixDistance), n, names, tiles)
		batch.Reset()
		if err := WritePHYLIP(&batch, names, d); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != batch.String() {
			t.Fatalf("tiling %v: PHYLIP stream differs from WritePHYLIP", tiling)
		}
	}
}

func TestTileWriterIncompleteRunErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 6
	names, s, d := randomMatrices(rng, n)
	tiles := blockTiles(s, d, 2, n)
	tw := NewTileWriter(&bytes.Buffer{}, FormatTSV, MatrixSimilarity)
	if err := tw.Start(n, names); err != nil {
		t.Fatal(err)
	}
	for _, tl := range tiles[:len(tiles)-1] {
		if err := tw.Emit(tl); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err == nil {
		t.Error("Flush with missing rows must error")
	}
}

// BenchmarkTileWriterTSV streams a 1 000 × 1 000 similarity matrix of
// seeded values in [0, 1) through a TSV TileWriter into io.Discard, once
// as the full-width row bands a local run emits (256 rows, the engine's
// default tile height) and once as the 250 × 250 blocks of a grid run.
func BenchmarkTileWriterTSV(b *testing.B) {
	const n = 1000
	names, s, d := randomMatrices(rand.New(rand.NewSource(41)), n)
	for _, shape := range []struct {
		name       string
		rows, cols int
	}{{"bands", 256, n}, {"blocks", 250, 250}} {
		tiles := blockTiles(s, d, shape.rows, shape.cols)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tw := NewTileWriter(io.Discard, FormatTSV, MatrixSimilarity)
				if err := tw.Start(n, names); err != nil {
					b.Fatal(err)
				}
				for _, tl := range tiles {
					if err := tw.Emit(tl); err != nil {
						b.Fatal(err)
					}
				}
				if err := tw.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTileWriterPHYLIPPadding checks the hand-padded PHYLIP fields against
// fmt's "%-10s" and " %9.6f" where the padding is not the common case:
// multi-byte names (fmt pads by runes), names with whitespace, and cells
// wider than nine characters, negative or not finite.
func TestTileWriterPHYLIPPadding(t *testing.T) {
	names := []string{"αβγ", "x y", "ünïcödé-name-longer", "plain"}
	n := len(names)
	d := sparse.MustDense[float64](n, n)
	for i, v := range []float64{0, 123456.5, -0.25, math.NaN(), math.Inf(1), 1e-7, 10, 0.1234565} {
		d.Data[i] = v
	}
	var streamed, batch bytes.Buffer
	runSink(t, NewTileWriter(&streamed, FormatPHYLIP, MatrixSimilarity), n, names, blockTiles(d, d, 3, 2))
	if err := WritePHYLIP(&batch, names, d); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != batch.String() {
		t.Errorf("PHYLIP stream\n%q\ndiffers from WritePHYLIP\n%q", streamed.String(), batch.String())
	}
}
