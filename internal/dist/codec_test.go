package dist

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
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
		packedWire{Entries: entries, WordRows: 8, Cols: 4, B: 64, ActiveRows: 100, DenseThreshold: -1},
		filterPart{Values: 9, Seen: rowSet{Bitset: true, Words: []uint64{0x8000000000000001, 5}}, Multi: rowSet{Words: []uint64{0}}},
		filterPart{Values: 3, Seen: rowSet{Words: []uint64{0, 64, 1 << 61}}, Multi: rowSet{Words: []uint64{64}}},
		filterPart{Values: 700, Seen: rowSet{Bitset: true, Words: []uint64{^uint64(0), 1}}, Multi: rowSet{Bitset: true, Words: []uint64{3, 0}}},
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
	// A part with an empty set (a Multi when no two of a rank's columns
	// share a row, a rank with no rows): the set decodes empty, and the
	// other keeps its words.
	for _, v := range []filterPart{
		{Values: 2, Seen: rowSet{Words: []uint64{4, 9}}},
		{Multi: rowSet{Words: []uint64{4}}},
	} {
		got, ok := roundTrip(t, v).(filterPart)
		if !ok || got.Values != v.Values || len(got.Seen.Words) != len(v.Seen.Words) || len(got.Multi.Words) != len(v.Multi.Words) ||
			!slices.Equal(got.Seen.Words, v.Seen.Words) || !slices.Equal(got.Multi.Words, v.Multi.Words) {
			t.Errorf("round-trip of %+v = %#v", v, got)
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
	if kindEntrySlice != 0x40 || kindPackedWire != 0x41 || kindTile != 0x44 || kindFilterParts != 0x46 {
		t.Fatalf("wire kinds moved: entries %#x, panel %#x, tile %#x, filter parts %#x",
			kindEntrySlice, kindPackedWire, kindTile, kindFilterParts)
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
	// Panels that contradict themselves: a mask width outside [1, 64], more
	// active rows than their words hold, or an entry outside their shape.
	entry := func(wordRow, col int) entrySlice { return entrySlice{{WordRow: wordRow, Col: col, Word: 1}} }
	for _, w := range []packedWire{
		{WordRows: 2, Cols: 2, B: 0},
		{WordRows: 2, Cols: 2, B: 65},
		{WordRows: 2, Cols: 2, B: -64},
		{WordRows: -1, Cols: 2, B: 64},
		{WordRows: 2, Cols: -3, B: 64},
		{WordRows: 2, Cols: 2, B: 64, ActiveRows: 129},
		{WordRows: 2, Cols: 2, B: 64, ActiveRows: -1},
		{WordRows: 1 << 50, Cols: 2, B: 64, ActiveRows: 1<<63 - 1},
		{WordRows: 2, Cols: 2, B: 64, Entries: entry(2, 0)},
		{WordRows: 2, Cols: 2, B: 64, Entries: entry(0, 2)},
		{WordRows: 2, Cols: 2, B: 64, Entries: entry(-1, 0)},
		{WordRows: 2, Cols: 2, B: 64, Entries: entry(0, -1)},
	} {
		data, err := c.Encode(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(data); err == nil {
			t.Errorf("panel %+v decoded without error", w)
		}
	}
	// Filter parts with a short header, a partial word, an unknown form, a
	// negative value count, a seen set longer than the payload, or the
	// retired one-set kind.
	for _, data := range [][]byte{
		{kindFilterParts},
		append(filterHeader(1, 0, 0), 1, 2, 3, 4),
		filterHeader(1, 4, 0),
		filterHeader(-1, 0, 0),
		filterHeader(1, 0, 1),
		append(filterHeader(1, 1, 2), make([]byte, 8)...),
		append(filterHeader(1, 0, 1<<63), make([]byte, 8)...),
		{kindFilterParts - 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := c.Decode(data); err == nil {
			t.Errorf("filter part %x decoded without error", data)
		}
	}
	// Tile headers whose counts sum to a multiple of 2⁶¹ words: 8× the sum
	// wraps to 0, the empty body's length, so only a per-count bound keeps
	// them from reaching make.
	for _, counts := range [][3]uint64{
		{1 << 61, 0, 0},
		{0, 0, 1 << 61},
		{1<<61 - 1, 1, 0},
		{1<<61 + 1, 0, 1<<63 - 1},
	} {
		if _, err := c.Decode(tileHeader(counts)); err == nil {
			t.Errorf("tile header announcing %v words decoded from an empty body", counts)
		}
	}
}

// tileHeader encodes a bare kindTile header for a 1×1 tile at the origin
// announcing the given B, S and D counts, with no payload after it.
func tileHeader(counts [3]uint64) []byte {
	out := []byte{kindTile}
	for _, d := range []uint64{0, 0, 1, 1, counts[0], counts[1], counts[2]} {
		out = binary.LittleEndian.AppendUint64(out, d)
	}
	return out
}

// filterHeader encodes a bare kindFilterParts header with no words.
func filterHeader(values int64, forms, seenWords uint64) []byte {
	out := binary.LittleEndian.AppendUint64([]byte{kindFilterParts}, uint64(values))
	out = binary.LittleEndian.AppendUint64(out, forms)
	return binary.LittleEndian.AppendUint64(out, seenWords)
}

// FuzzWireDecode feeds arbitrary bytes to both codecs a rank decodes with,
// the dist wire codec and the bsp.PlainCodec it delegates to. Decode must
// return an error or a value, never panic or allocate past the payload, and
// a decoded value must re-encode to a canonical form that decodes back to
// the same bytes.
func FuzzWireDecode(f *testing.F) {
	wire := NewWireCodec()
	for _, v := range []any{
		entrySlice{{WordRow: 7, Col: 1, Word: ^uint64(0)}},
		packedWire{Entries: entrySlice{{WordRow: 0, Col: 3, Word: 5}}, WordRows: 8, Cols: 4, B: 64, ActiveRows: 100, DenseThreshold: -1},
		&tile.Tile{Rows: 1, Cols: 2, B: []int64{1, 2}, S: []float64{0.5, 1}, D: []float64{0.5, 0}},
		[]int64{10, 20},
		[]bool{true, false},
		"hello",
		nil,
	} {
		data, err := wire.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(tileHeader([3]uint64{1 << 61, 0, 0}))
	f.Add([]byte{kindPackedWire, 1, 2, 3})
	for _, v := range []any{
		filterPart{Values: 4, Seen: rowSet{Bitset: true, Words: []uint64{1 << 63, 3}}, Multi: rowSet{Words: []uint64{63}}},
		filterPart{Values: 2, Seen: rowSet{Words: []uint64{5, 1 << 40}}},
		filterPart{Values: 300, Seen: rowSet{Bitset: true, Words: []uint64{7, 1}}, Multi: rowSet{Bitset: true, Words: []uint64{6, 0}}},
		packedWire{WordRows: 1, Cols: 1, B: 64},
	} {
		data, err := wire.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(filterHeader(1, 4, 0))
	f.Add(append(filterHeader(1, 3, 1), make([]byte, 16)...))
	f.Add(append(filterHeader(1, 0, 9), make([]byte, 8)...))
	// A panel whose one entry lies past its announced word rows.
	bad, err := wire.Encode(packedWire{Entries: entrySlice{{WordRow: 9, Col: 0, Word: 1}}, WordRows: 2, Cols: 1, B: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []bsp.Codec{wire, bsp.PlainCodec{}} {
			v, err := c.Decode(data)
			if err != nil {
				continue
			}
			canon, err := c.Encode(v)
			if err != nil {
				t.Fatalf("%T: decoded %T does not re-encode: %v", c, v, err)
			}
			if len(canon) > len(data) {
				t.Fatalf("%T: %d input bytes decoded to a %d-byte value", c, len(data), len(canon))
			}
			back, err := c.Decode(canon)
			if err != nil {
				t.Fatalf("%T: canonical encoding does not decode: %v", c, err)
			}
			again, err := c.Encode(back)
			if err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("%T: canonical encoding not stable: %x vs %x", c, again, canon)
			}
		}
	})
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
