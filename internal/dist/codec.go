package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/tile"
)

// NewWireCodec returns the bsp.Codec for the distributed engine's traffic:
// it serializes the SUMMA wire types this package exchanges between ranks —
// coordinate entry slices, packed panels, and result tiles — and delegates
// everything else (the collectives' primitive payloads) to bsp.PlainCodec.
// A PackedEntry travels as the same 24-byte (word row, column, mask word)
// triple the BSP accounting charges.
//
// Kind bytes at and above bsp.PlainCodecKindLimit identify the dist types;
// the layout is fixed little-endian with explicit lengths, so equal values
// encode identically on every host — the property that keeps TCP runs
// byte-identical to in-process runs.
func NewWireCodec() bsp.Codec { return wireCodec{} }

const (
	kindEntrySlice = bsp.PlainCodecKindLimit + iota
	kindPackedWire
	// Two retired block kinds: their slots stay reserved so kindTile keeps
	// its byte and a peer from an older build cannot take a tile for a block.
	_
	_
	kindTile
)

type wireCodec struct {
	plain bsp.PlainCodec
}

func (c wireCodec) Encode(v any) ([]byte, error) {
	switch x := v.(type) {
	case entrySlice:
		out := make([]byte, 1, 1+24*len(x))
		out[0] = kindEntrySlice
		return appendEntries(out, x), nil
	case packedWire:
		out := make([]byte, 1, 1+48+24*len(x.Entries))
		out[0] = kindPackedWire
		for _, d := range []int{x.WordRows, x.Cols, x.B, x.ActiveRows, x.DenseThreshold, len(x.Entries)} {
			out = binary.LittleEndian.AppendUint64(out, uint64(d))
		}
		return appendEntries(out, x.Entries), nil
	case *tile.Tile:
		out := make([]byte, 1, 1+56+8*(len(x.B)+len(x.S)+len(x.D)))
		out[0] = kindTile
		for _, d := range []int{x.RowLo, x.ColLo, x.Rows, x.Cols, len(x.B), len(x.S), len(x.D)} {
			out = binary.LittleEndian.AppendUint64(out, uint64(d))
		}
		for _, b := range x.B {
			out = binary.LittleEndian.AppendUint64(out, uint64(b))
		}
		for _, s := range x.S {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
		}
		for _, d := range x.D {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d))
		}
		return out, nil
	default:
		return c.plain.Encode(v)
	}
}

func (c wireCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("dist: wire codec: empty payload")
	}
	kind, body := data[0], data[1:]
	switch kind {
	case kindEntrySlice:
		return parseEntries(body)
	case kindPackedWire:
		if len(body) < 48 {
			return nil, fmt.Errorf("dist: wire codec: packed panel header %d bytes, want >= 48", len(body))
		}
		var dims [6]int
		for i := range dims {
			dims[i] = int(binary.LittleEndian.Uint64(body[8*i:]))
		}
		entries, err := parseEntries(body[48:])
		if err != nil {
			return nil, err
		}
		if len(entries) != dims[5] {
			return nil, fmt.Errorf("dist: wire codec: packed panel announces %d entries, carries %d", dims[5], len(entries))
		}
		return packedWire{
			Entries:        entries,
			WordRows:       dims[0],
			Cols:           dims[1],
			B:              dims[2],
			ActiveRows:     dims[3],
			DenseThreshold: dims[4],
		}, nil
	case kindTile:
		if len(body) < 56 {
			return nil, fmt.Errorf("dist: wire codec: tile header %d bytes, want >= 56", len(body))
		}
		var hdr [7]int
		for i := range hdr {
			hdr[i] = int(binary.LittleEndian.Uint64(body[8*i:]))
		}
		nb, ns, nd := hdr[4], hdr[5], hdr[6]
		rest := body[56:]
		if nb < 0 || ns < 0 || nd < 0 || len(rest) != 8*(nb+ns+nd) {
			return nil, fmt.Errorf("dist: wire codec: tile payload %d bytes, want %d", len(rest), 8*(nb+ns+nd))
		}
		tl := &tile.Tile{
			RowLo: hdr[0], ColLo: hdr[1], Rows: hdr[2], Cols: hdr[3],
			B: make([]int64, nb), S: make([]float64, ns), D: make([]float64, nd),
		}
		for i := range tl.B {
			tl.B[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		rest = rest[8*nb:]
		for i := range tl.S {
			tl.S[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		rest = rest[8*ns:]
		for i := range tl.D {
			tl.D[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		return tl, nil
	default:
		return c.plain.Decode(data)
	}
}

func appendEntries(out []byte, entries entrySlice) []byte {
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.WordRow))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.Col))
		out = binary.LittleEndian.AppendUint64(out, e.Word)
	}
	return out
}

func parseEntries(body []byte) (entrySlice, error) {
	if len(body)%24 != 0 {
		return nil, fmt.Errorf("dist: wire codec: entry payload %d bytes not a multiple of 24", len(body))
	}
	out := make(entrySlice, len(body)/24)
	for i := range out {
		out[i] = bitmat.PackedEntry{
			WordRow: int(binary.LittleEndian.Uint64(body[24*i:])),
			Col:     int(binary.LittleEndian.Uint64(body[24*i+8:])),
			Word:    binary.LittleEndian.Uint64(body[24*i+16:]),
		}
	}
	return out, nil
}
