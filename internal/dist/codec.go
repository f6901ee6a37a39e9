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
// it serializes the wire types this package exchanges between ranks —
// coordinate entry slices, packed panels, result tiles and filter parts —
// and delegates everything else (the collectives' primitive payloads) to
// bsp.PlainCodec. A PackedEntry travels as the same 24-byte (word row,
// column, mask word) triple the BSP accounting charges.
//
// Decode validates what it can check alone: every length against the
// payload, a panel's width and active rows, and its entries against its
// announced dimensions. What depends on the receiver's batch (a panel's
// shape, a filter part's rows) is checked where it is used, and a
// violation fails that rank's batch with an error.
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
	// The retired one-set filter part: its slot stays reserved so a peer
	// from an older build cannot pass one off as a two-set part.
	_
	kindFilterParts
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
	case filterPart:
		out := make([]byte, 1, 1+x.ByteSize())
		out[0] = kindFilterParts
		forms := uint64(0)
		if x.Seen.Bitset {
			forms |= 1
		}
		if x.Multi.Bitset {
			forms |= 2
		}
		for _, d := range []uint64{uint64(x.Values), forms, uint64(len(x.Seen.Words))} {
			out = binary.LittleEndian.AppendUint64(out, d)
		}
		for _, set := range []rowSet{x.Seen, x.Multi} {
			for _, w := range set.Words {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
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
		w := packedWire{
			Entries:        entries,
			WordRows:       dims[0],
			Cols:           dims[1],
			B:              dims[2],
			ActiveRows:     dims[3],
			DenseThreshold: dims[4],
		}
		if err := w.check(); err != nil {
			return nil, fmt.Errorf("dist: wire codec: packed panel: %w", err)
		}
		return w, nil
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
		// Bound each count by the payload before summing: near 2⁶¹,
		// 8*(nb+ns+nd) wraps and a bare header would pass for a huge tile.
		words := len(rest) / 8
		if nb < 0 || ns < 0 || nd < 0 || nb > words || ns > words || nd > words || len(rest) != 8*(nb+ns+nd) {
			return nil, fmt.Errorf("dist: wire codec: tile payload %d bytes, header announces %d+%d+%d words", len(rest), nb, ns, nd)
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
	case kindFilterParts:
		if len(body) < 24 || len(body)%8 != 0 {
			return nil, fmt.Errorf("dist: wire codec: filter part of %d bytes", len(body))
		}
		values, forms, nSeen := int64(binary.LittleEndian.Uint64(body)), binary.LittleEndian.Uint64(body[8:]), binary.LittleEndian.Uint64(body[16:])
		words := make([]uint64, (len(body)-24)/8)
		if values < 0 || forms > 3 || nSeen > uint64(len(words)) {
			return nil, fmt.Errorf("dist: wire codec: filter part header (%d values, forms %d, %d seen words of %d)", values, forms, nSeen, len(words))
		}
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(body[24+8*i:])
		}
		return filterPart{
			Values: int(values),
			Seen:   rowSet{Bitset: forms&1 != 0, Words: words[:nSeen:nSeen]},
			Multi:  rowSet{Bitset: forms&2 != 0, Words: words[nSeen:]},
		}, nil
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
