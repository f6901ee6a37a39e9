package tcptransport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire protocol: every frame is
//
//	u32 little-endian length (of everything after these 4 bytes)
//	u8  frame type
//	... type-specific body
//
// Frame types:
//
//	HELLO  u32 rank                      — first frame on every dialed conn
//	MSG    u32 from | u32 step | i64 tag | u32 seq | payload bytes
//	DONE   u32 from | u32 step | u32 n   — sender finished staging step; n = frames it sent us
//	FIN    u32 from | u32 steps          — sender's program completed after `steps` supersteps
//	ABORT  u32 from | u32 step | u32 culprit | utf8 message
//
// The length prefix is capped (Options.MaxFrame) before any allocation, the
// same header-bomb discipline as the samplefile binary reader: a corrupt or
// malicious length header is an error, not an OOM.
const (
	frameHello = byte(iota + 1)
	frameMsg
	frameDone
	frameFin
	frameAbort
)

// DefaultMaxFrame caps a frame's length prefix (256 MiB). Payloads are
// per-message, so this bounds a single superstep message, not the whole
// exchange.
const DefaultMaxFrame = 1 << 28

// minFrameBody is the smallest legal frame: a type byte alone.
const minFrameBody = 1

// appendFrame appends a length-prefixed frame of the given type and body to
// buf and returns the extended slice.
func appendFrame(buf []byte, typ byte, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(body)))
	buf = append(buf, typ)
	return append(buf, body...)
}

// readFrame reads one frame from r, enforcing the length cap before
// allocating. Returns the frame type and body.
func readFrame(r io.Reader, maxFrame int) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < minFrameBody {
		return 0, nil, fmt.Errorf("tcptransport: frame length %d below minimum %d", n, minFrameBody)
	}
	if int64(n) > int64(maxFrame) {
		return 0, nil, fmt.Errorf("tcptransport: frame length %d exceeds cap %d", n, maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("tcptransport: truncated frame (want %d bytes): %w", n, err)
	}
	return buf[0], buf[1:], nil
}

// msgFrame is a decoded MSG body.
type msgFrame struct {
	From    int
	Step    int
	Tag     int
	Seq     int
	Payload []byte
}

const msgHeaderLen = 4 + 4 + 8 + 4

func appendMsgBody(buf []byte, from, step, tag, seq int, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(step))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(tag)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seq))
	return append(buf, payload...)
}

func parseMsg(body []byte) (msgFrame, error) {
	if len(body) < msgHeaderLen {
		return msgFrame{}, fmt.Errorf("tcptransport: MSG body %d bytes, want >= %d", len(body), msgHeaderLen)
	}
	return msgFrame{
		From:    int(binary.LittleEndian.Uint32(body[0:])),
		Step:    int(binary.LittleEndian.Uint32(body[4:])),
		Tag:     int(int64(binary.LittleEndian.Uint64(body[8:]))),
		Seq:     int(binary.LittleEndian.Uint32(body[16:])),
		Payload: body[msgHeaderLen:],
	}, nil
}

func appendU32Body(buf []byte, vals ...int) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func parseU32s(body []byte, n int) ([]int, error) {
	if len(body) < 4*n {
		return nil, fmt.Errorf("tcptransport: frame body %d bytes, want >= %d", len(body), 4*n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return out, nil
}
