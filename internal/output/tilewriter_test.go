package output

import (
	"bytes"
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

func TestTileWriterCSVRoundTripHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 5
	names, s, d := randomMatrices(rng, n)
	var buf bytes.Buffer
	runSink(t, NewTileWriter(&buf, FormatCSV, MatrixSimilarity), n, names, blockTiles(s, d, 2, 3))
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n+1 {
		t.Fatalf("got %d lines, want %d", len(lines), n+1)
	}
	if lines[0] != "sample,"+strings.Join(names, ",") {
		t.Fatalf("bad CSV header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], names[0]+",1.000000,") {
		t.Fatalf("bad first CSV row: %q", lines[1])
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
