package dist

import (
	"reflect"
	"testing"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/tile"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	c := NewWireCodec()
	data, err := c.Encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

func TestWireCodecRoundTrips(t *testing.T) {
	entries := entrySlice{
		{WordRow: 0, Col: 3, Word: 0xdeadbeef},
		{WordRow: 7, Col: 1, Word: ^uint64(0)},
	}
	cases := []any{
		entries,
		entrySlice{},
		packedWire{Entries: entries, WordRows: 8, Cols: 4, B: 512, ActiveRows: 100, DenseThreshold: -1},
		&tile.Tile{RowLo: 4, ColLo: 8, Rows: 2, Cols: 2,
			B: []int64{1, 2, 3, 4}, S: []float64{0.1, 0.2, 0.3, 0.4}, D: []float64{0.9, 0.8, 0.7, 0.6}},
		// Primitive payloads fall through to PlainCodec.
		[]int64{10, 20},
		[]uint64{1, 2, 3},
		[]int{-1, 0, 1},
		[]float64{3.14},
		42,
		"hello",
		nil,
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		want := v
		// Empty slices may decode as non-nil empty; normalise.
		if e, ok := want.(entrySlice); ok && len(e) == 0 {
			if ge, ok := got.(entrySlice); !ok || len(ge) != 0 {
				t.Errorf("empty entrySlice round-trip = %#v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round-trip %T: got %#v, want %#v", v, got, want)
		}
	}
}

// TestWireCodecDeterministic: equal values must encode identically — the
// byte-identical-over-TCP guarantee rests on it.
func TestWireCodecDeterministic(t *testing.T) {
	c := NewWireCodec()
	v := packedWire{
		Entries:  entrySlice{{WordRow: 1, Col: 2, Word: 3}},
		WordRows: 4, Cols: 5, B: 6, ActiveRows: 7, DenseThreshold: 8,
	}
	a, _ := c.Encode(v)
	b, _ := c.Encode(v)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal values encoded differently")
	}
	// The kind bytes are the wire format: retiring a kind must not renumber
	// the ones after it, or ranks built from different commits misdecode.
	if kindEntrySlice != 0x40 || kindPackedWire != 0x41 || kindTile != 0x44 {
		t.Fatalf("wire kinds moved: entries %#x, panel %#x, tile %#x", kindEntrySlice, kindPackedWire, kindTile)
	}
}

func TestWireCodecRejectsCorruptPayloads(t *testing.T) {
	c := NewWireCodec()
	bad := [][]byte{
		{},
		{kindEntrySlice, 1, 2, 3}, // not a multiple of 24
		{kindPackedWire, 0},       // truncated header
		{kindTile},                // truncated header
		append([]byte{kindPackedWire}, make([]byte, 48)...)[:40], // short
	}
	for i, data := range bad {
		if _, err := c.Decode(data); err == nil {
			t.Errorf("case %d: corrupt payload decoded without error", i)
		}
	}
	// A packed panel whose announced entry count disagrees with its body.
	v := packedWire{Entries: entrySlice{{WordRow: 1, Col: 1, Word: 1}}, WordRows: 1, Cols: 1, B: 64}
	data, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-24] // drop the entry, keep the count
	if _, err := c.Decode(data); err == nil {
		t.Error("panel with missing entries decoded without error")
	}
}

// TestWireCodecEncodesRealPacked: a panel built by bitmat survives the
// toWire → encode → decode → fromWire cycle with identical column data.
func TestWireCodecEncodesRealPacked(t *testing.T) {
	rowsPerCol := [][]int{{1, 5, 9}, {2, 5}, {0, 9, 63, 64}}
	p := bitmat.PackColumns(rowsPerCol, 65, 64)
	w := toWire(p)
	got := roundTrip(t, w).(packedWire)
	q := fromWire(got)
	if q.Cols != p.Cols || q.WordRows != p.WordRows {
		t.Fatalf("dims changed: %d×%d vs %d×%d", q.WordRows, q.Cols, p.WordRows, p.Cols)
	}
	if !reflect.DeepEqual(p.Entries(), q.Entries()) {
		t.Fatal("entries changed across the wire")
	}
}
