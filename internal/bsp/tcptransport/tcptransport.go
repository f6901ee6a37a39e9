// Package tcptransport implements bsp.Transport over TCP, letting the
// ranks of a BSP run live in separate processes (and machines): one
// listener per rank, a lazily-dialed full mesh of persistent connections,
// and length-prefixed frames carrying codec-encoded payloads.
//
// Superstep protocol: during Exchange a rank streams MSG frames to each
// peer followed by one DONE frame carrying the count of frames it sent, so
// receivers know when a peer's contribution to the step is complete without
// a separate barrier round-trip. A rank whose program completes broadcasts
// FIN with its superstep count; remaining ranks keep synchronising among
// themselves, exactly like the in-process runtime's early-finish semantics.
//
// Failure semantics are poison-the-barrier: a rank that times out (no
// superstep traffic within Options.StepTimeout), disconnects, or aborts
// causes every surviving rank to unwind with a *bsp.RankFailedError
// identifying the failed rank — ABORT frames carry the culprit's rank, so
// the blame is consistent across survivors regardless of who detected the
// failure first. No hangs: every wait is bounded by the step deadline.
//
// Endpoints are single-run: after the run's ranks Finish or fail, build new
// transports for the next run.
package tcptransport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"genomeatscale/internal/bsp"
)

// Options configures a transport endpoint. The zero value is usable.
type Options struct {
	// StepTimeout bounds one superstep exchange: a peer that produces no
	// traffic for the current step within this window is declared failed.
	// It is also the write deadline for outgoing frames. Default 30s.
	StepTimeout time.Duration
	// DialTimeout bounds a single connection attempt. Default 5s.
	DialTimeout time.Duration
	// DialAttempts is the number of connection attempts per peer before
	// giving up (peers start at slightly different times, so first dials
	// routinely fail). Default 10.
	DialAttempts int
	// DialBackoff is the initial retry backoff; it doubles per attempt
	// with jitter, capped at 2s. Default 50ms.
	DialBackoff time.Duration
	// MaxFrame caps a frame's length prefix; larger headers are a
	// protocol error before any allocation. Default DefaultMaxFrame.
	MaxFrame int
	// Listener, when non-nil, is used instead of binding peers[rank] —
	// tests pre-bind port 0 listeners to avoid address races.
	Listener net.Listener
}

func (o Options) withDefaults() Options {
	if o.StepTimeout <= 0 {
		o.StepTimeout = 30 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 10
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 50 * time.Millisecond
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	return o
}

// outConn is the lazily-dialed persistent connection this rank writes to
// one peer on. Reads happen on accepted connections only, so each mesh edge
// is two sockets, each with one writer and one reader.
type outConn struct {
	mu sync.Mutex
	c  net.Conn
}

// stepState accumulates one superstep's incoming traffic.
type stepState struct {
	msgs []msgFrame
	done []int // done[q] = frame count peer q announced for this step; -1 until its DONE arrives
	got  []int // got[q] = MSG frames received from peer q for this step
}

// Transport is a TCP bsp.Transport endpoint for one rank.
type Transport struct {
	rank  int
	np    int
	peers []string
	codec bsp.Codec
	opts  Options

	ln  net.Listener
	out []*outConn

	mu       sync.Mutex
	cond     *sync.Cond
	steps    map[int]*stepState
	fins     []int // fins[q] = supersteps peer q completed before finishing; -1 while running
	failed   error
	closed   bool
	curStep  int
	localFin int

	accepted []net.Conn
	readers  sync.WaitGroup

	statsMu sync.Mutex
	stats   bsp.TransportStats
}

// New builds the endpoint for `rank` of the run whose rank addresses are
// `peers` (peers[rank] is this rank's own listen address). The codec
// encodes payloads at the wire boundary; nil means bsp.PlainCodec. The
// listener is bound (or adopted from opts.Listener) before New returns, so
// peers can dial as soon as every rank has constructed its endpoint.
func New(rank int, peers []string, codec bsp.Codec, opts Options) (*Transport, error) {
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("tcptransport: rank %d out of range for %d peers", rank, len(peers))
	}
	if codec == nil {
		codec = bsp.PlainCodec{}
	}
	opts = opts.withDefaults()
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", peers[rank])
		if err != nil {
			return nil, fmt.Errorf("tcptransport: rank %d cannot listen on %s: %w", rank, peers[rank], err)
		}
	}
	t := &Transport{
		rank:     rank,
		np:       len(peers),
		peers:    peers,
		codec:    codec,
		opts:     opts,
		ln:       ln,
		out:      make([]*outConn, len(peers)),
		steps:    make(map[int]*stepState),
		fins:     make([]int, len(peers)),
		localFin: -1,
	}
	t.cond = sync.NewCond(&t.mu)
	for q := range t.out {
		t.out[q] = &outConn{}
		t.fins[q] = -1
	}
	t.readers.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Rank returns this endpoint's rank.
func (t *Transport) Rank() int { return t.rank }

// NProcs returns the number of ranks in the run.
func (t *Transport) NProcs() int { return t.np }

// Addr returns the bound listen address — the real port when the
// configured address used port 0.
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// TransportStats returns a snapshot of the wire counters.
func (t *Transport) TransportStats() bsp.TransportStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats
}

func (t *Transport) acceptLoop() {
	defer t.readers.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted = append(t.accepted, c)
		t.readers.Add(1)
		t.mu.Unlock()
		go t.handleConn(c)
	}
}

// handleConn reads frames from one accepted connection. The first frame
// must be HELLO identifying the peer; a read failure afterwards is benign
// when the run is already over (closed, failed, or the peer finished) and a
// lost-connection failure otherwise.
func (t *Transport) handleConn(c net.Conn) {
	defer t.readers.Done()
	defer c.Close()
	peer := -1
	for {
		typ, body, err := readFrame(c, t.opts.MaxFrame)
		if err != nil {
			t.readerExit(peer, err)
			return
		}
		t.statsMu.Lock()
		t.stats.FramesRecv++
		t.stats.BytesRecv += int64(4 + 1 + len(body))
		t.statsMu.Unlock()
		if peer == -1 {
			if typ != frameHello {
				t.readerExit(peer, fmt.Errorf("tcptransport: first frame type %d, want HELLO", typ))
				return
			}
			vals, err := parseU32s(body, 1)
			if err != nil || vals[0] < 0 || vals[0] >= t.np || vals[0] == t.rank {
				t.readerExit(peer, fmt.Errorf("tcptransport: bad HELLO from %v", c.RemoteAddr()))
				return
			}
			peer = vals[0]
			continue
		}
		switch typ {
		case frameMsg:
			m, err := parseMsg(body)
			if err != nil {
				t.readerExit(peer, err)
				return
			}
			t.mu.Lock()
			if t.localFin < 0 || m.Step < t.localFin {
				st := t.ensureStep(m.Step)
				st.msgs = append(st.msgs, m)
				st.got[m.From]++
			}
			t.cond.Broadcast()
			t.mu.Unlock()
		case frameDone:
			vals, err := parseU32s(body, 3)
			if err != nil {
				t.readerExit(peer, err)
				return
			}
			from, step, n := vals[0], vals[1], vals[2]
			t.mu.Lock()
			if t.localFin < 0 || step < t.localFin {
				t.ensureStep(step).done[from] = n
			}
			t.cond.Broadcast()
			t.mu.Unlock()
		case frameFin:
			vals, err := parseU32s(body, 2)
			if err != nil {
				t.readerExit(peer, err)
				return
			}
			t.mu.Lock()
			t.fins[vals[0]] = vals[1]
			t.cond.Broadcast()
			t.mu.Unlock()
		case frameAbort:
			vals, err := parseU32s(body, 3)
			if err != nil {
				t.readerExit(peer, err)
				return
			}
			step, culprit := vals[1], vals[2]
			t.mu.Lock()
			if t.failed == nil && !t.closed {
				t.failed = &bsp.RankFailedError{Rank: culprit, Step: step, Cause: errors.New(string(body[12:]))}
			}
			t.cond.Broadcast()
			t.mu.Unlock()
		default:
			t.readerExit(peer, fmt.Errorf("tcptransport: unknown frame type %d", typ))
			return
		}
	}
}

// readerExit handles a reader goroutine's terminal error. EOF and friends
// are benign when the run is already over; an unexpected loss of a live
// peer's connection poisons the barrier, blaming that peer.
func (t *Transport) readerExit(peer int, err error) {
	t.mu.Lock()
	benign := t.closed || t.failed != nil || t.localFin >= 0 ||
		peer < 0 || t.fins[peer] >= 0
	if benign {
		t.mu.Unlock()
		return
	}
	step := t.curStep
	rfe := &bsp.RankFailedError{Rank: peer, Step: step, Cause: fmt.Errorf("connection lost: %w", err)}
	t.failed = rfe
	t.cond.Broadcast()
	t.mu.Unlock()
	t.broadcastAbort(peer, step, rfe.Cause.Error())
}

// ensureStep returns the state for a superstep, creating it on first
// touch (traffic for a step can arrive before the local rank enters it).
// Caller holds t.mu.
func (t *Transport) ensureStep(step int) *stepState {
	st := t.steps[step]
	if st == nil {
		st = &stepState{done: make([]int, t.np), got: make([]int, t.np)}
		for q := range st.done {
			st.done[q] = -1
		}
		t.steps[step] = st
	}
	return st
}

// finishedBy reports whether peer q completed its program before
// participating in superstep `step`. Caller holds t.mu.
func (t *Transport) finishedBy(q, step int) bool {
	return t.fins[q] >= 0 && t.fins[q] <= step
}

// getConn returns the persistent connection to peer q, dialing with
// bounded retry + exponential backoff (peers start at different times) on
// first use. Caller must NOT hold t.mu.
func (t *Transport) getConn(q int, retry bool) (net.Conn, error) {
	oc := t.out[q]
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.c != nil {
		return oc.c, nil
	}
	attempts := t.opts.DialAttempts
	if !retry {
		attempts = 1
	}
	backoff := t.opts.DialBackoff
	// Retries exist for startup staggering; a peer that stays unreachable
	// must surface as a failure within the step deadline, not after the
	// full backoff schedule.
	deadline := time.Now().Add(t.opts.StepTimeout)
	var lastErr error
	for i := 0; i < attempts; i++ {
		t.mu.Lock()
		closed, failed := t.closed, t.failed
		t.mu.Unlock()
		if closed {
			return nil, errors.New("tcptransport: transport closed")
		}
		if failed != nil && retry {
			return nil, failed
		}
		if i > 0 && time.Now().After(deadline) {
			return nil, fmt.Errorf("tcptransport: rank %d cannot reach rank %d at %s within %v: %w",
				t.rank, q, t.peers[q], t.opts.StepTimeout, lastErr)
		}
		t.statsMu.Lock()
		t.stats.Dials++
		if i > 0 {
			t.stats.Retries++
		}
		t.statsMu.Unlock()
		c, err := net.DialTimeout("tcp", t.peers[q], t.opts.DialTimeout)
		if err == nil {
			hello := appendFrame(nil, frameHello, appendU32Body(nil, t.rank))
			if werr := t.writeConn(c, hello); werr != nil {
				c.Close()
				lastErr = werr
			} else {
				oc.c = c
				return c, nil
			}
		} else {
			lastErr = err
		}
		sleep := backoff
		if sleep > 0 {
			sleep += time.Duration(rand.Int63n(int64(sleep)/2 + 1))
		}
		time.Sleep(sleep)
		backoff *= 2
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	return nil, fmt.Errorf("tcptransport: rank %d cannot reach rank %d at %s after %d attempts: %w",
		t.rank, q, t.peers[q], attempts, lastErr)
}

// writeConn writes one pre-framed buffer under the step write deadline and
// counts it.
func (t *Transport) writeConn(c net.Conn, frame []byte) error {
	c.SetWriteDeadline(time.Now().Add(t.opts.StepTimeout))
	_, err := c.Write(frame)
	if err == nil {
		t.statsMu.Lock()
		t.stats.FramesSent++
		t.stats.BytesSent += int64(len(frame))
		t.statsMu.Unlock()
	}
	return err
}

// sendTo frames and writes to peer q, dialing first if needed.
func (t *Transport) sendTo(q int, frame []byte, retry bool) error {
	if _, err := t.getConn(q, retry); err != nil {
		return err
	}
	oc := t.out[q]
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.c == nil {
		return errors.New("tcptransport: connection closed")
	}
	return t.writeConn(oc.c, frame)
}

// Exchange implements bsp.Transport: stream this step's messages to each
// peer, announce completion with DONE, then wait — bounded by StepTimeout —
// until every still-running peer's DONE and all its announced frames have
// arrived. Messages addressed to peers that already finished are dropped,
// mirroring the in-process runtime where a finished rank simply never
// reads them.
func (t *Transport) Exchange(step int, outgoing []bsp.Message) ([]bsp.Message, error) {
	start := time.Now()
	t.mu.Lock()
	if t.failed != nil {
		err := t.failed
		t.mu.Unlock()
		return nil, err
	}
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("tcptransport: transport closed")
	}
	if t.localFin >= 0 {
		// Peers were told this rank is done; none will wait for it again.
		t.mu.Unlock()
		return nil, fmt.Errorf("tcptransport: rank %d's endpoint already finished a run; an endpoint serves one run", t.rank)
	}
	t.curStep = step
	t.mu.Unlock()

	// Send phase: encode and stream MSG frames per peer, self-messages
	// loop back without touching the codec.
	var selfMsgs []bsp.Message
	counts := make([]int, t.np)
	for _, m := range outgoing {
		if m.To == t.rank {
			selfMsgs = append(selfMsgs, m)
			continue
		}
		t.mu.Lock()
		skip := t.finishedBy(m.To, step)
		t.mu.Unlock()
		if skip {
			continue
		}
		payload, err := t.codec.Encode(m.Payload)
		if err != nil {
			rerr := fmt.Errorf("tcptransport: rank %d cannot encode payload for rank %d (tag %d): %w",
				t.rank, m.To, m.Tag, err)
			t.failLocal(rerr, step)
			return nil, rerr
		}
		body := appendMsgBody(make([]byte, 0, msgHeaderLen+len(payload)), t.rank, step, m.Tag, m.Seq, payload)
		if err := t.sendTo(m.To, appendFrame(nil, frameMsg, body), true); err != nil {
			if ferr := t.failWrite(m.To, step, err); ferr != nil {
				return nil, ferr
			}
			continue // peer finished mid-send; drop like the skip above
		}
		counts[m.To]++
	}
	// DONE to every still-running peer, even with zero messages: the DONE
	// counts are the barrier.
	for q := 0; q < t.np; q++ {
		if q == t.rank {
			continue
		}
		t.mu.Lock()
		skip := t.finishedBy(q, step)
		t.mu.Unlock()
		if skip {
			continue
		}
		frame := appendFrame(nil, frameDone, appendU32Body(nil, t.rank, step, counts[q]))
		if err := t.sendTo(q, frame, true); err != nil {
			if ferr := t.failWrite(q, step, err); ferr != nil {
				return nil, ferr
			}
		}
	}

	// Wait phase: block until every running peer's step is complete, the
	// run is poisoned, or the deadline fires.
	timedOut := false
	timer := time.AfterFunc(t.opts.StepTimeout, func() {
		t.mu.Lock()
		timedOut = true
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timer.Stop()

	t.mu.Lock()
	st := t.ensureStep(step)
	for {
		if t.failed != nil {
			err := t.failed
			t.mu.Unlock()
			return nil, err
		}
		if t.closed {
			t.mu.Unlock()
			return nil, errors.New("tcptransport: transport closed")
		}
		missing := -1
		for q := 0; q < t.np; q++ {
			if q == t.rank || t.finishedBy(q, step) {
				continue
			}
			if st.done[q] < 0 || st.got[q] < st.done[q] {
				missing = q
				break
			}
		}
		if missing == -1 {
			break
		}
		if timedOut {
			rfe := &bsp.RankFailedError{
				Rank: missing,
				Step: step,
				Cause: fmt.Errorf("no superstep traffic within %v (reported by rank %d)",
					t.opts.StepTimeout, t.rank),
			}
			t.failed = rfe
			t.cond.Broadcast()
			t.mu.Unlock()
			t.broadcastAbort(missing, step, rfe.Cause.Error())
			return nil, rfe
		}
		t.cond.Wait()
	}
	wire := st.msgs
	delete(t.steps, step)
	t.mu.Unlock()

	// Decode outside the lock; frames already arrived in full.
	in := make([]bsp.Message, 0, len(wire)+len(selfMsgs))
	for _, m := range wire {
		v, err := t.codec.Decode(m.Payload)
		if err != nil {
			rerr := fmt.Errorf("tcptransport: rank %d cannot decode payload from rank %d (tag %d): %w",
				t.rank, m.From, m.Tag, err)
			t.failLocal(rerr, step)
			return nil, rerr
		}
		in = append(in, bsp.Message{
			From: m.From, To: t.rank, Tag: m.Tag, Seq: m.Seq,
			Payload: v, Bytes: bsp.PayloadBytes(v),
		})
	}
	in = append(in, selfMsgs...)
	bsp.SortMessages(in)

	dt := time.Since(start).Seconds()
	t.statsMu.Lock()
	if dt > t.stats.MaxStepSeconds {
		t.stats.MaxStepSeconds = dt
	}
	t.statsMu.Unlock()
	return in, nil
}

// failLocal poisons the run with a local failure (encode/decode error),
// blaming this rank.
func (t *Transport) failLocal(err error, step int) {
	t.mu.Lock()
	if t.failed == nil {
		t.failed = err
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	t.broadcastAbort(t.rank, step, err.Error())
}

// failWrite handles a failed write to peer q: benign if q finished in the
// meantime (its endpoint may be gone), otherwise poison the run blaming q
// and return the error the exchange should unwind with.
func (t *Transport) failWrite(q, step int, cause error) error {
	t.mu.Lock()
	if t.fins[q] >= 0 {
		t.mu.Unlock()
		return nil
	}
	if t.failed != nil {
		err := t.failed
		t.mu.Unlock()
		return err
	}
	rfe := &bsp.RankFailedError{Rank: q, Step: step, Cause: fmt.Errorf("send failed: %w", cause)}
	t.failed = rfe
	t.cond.Broadcast()
	t.mu.Unlock()
	t.broadcastAbort(q, step, rfe.Cause.Error())
	return rfe
}

// broadcastAbort best-effort notifies every peer that the run is poisoned,
// naming the culprit rank so all survivors report the same failure. Uses
// existing connections plus a single dial attempt; peers that cannot be
// reached will hit their own step deadline. Caller must NOT hold t.mu.
func (t *Transport) broadcastAbort(culprit, step int, msg string) {
	body := appendU32Body(nil, t.rank, step, culprit)
	body = append(body, msg...)
	frame := appendFrame(nil, frameAbort, body)
	for q := 0; q < t.np; q++ {
		if q == t.rank {
			continue
		}
		_ = t.sendTo(q, frame, false)
	}
}

// Finish implements bsp.Transport: record the local program's completion
// and tell every peer (dialing if the mesh edge was never used) so their
// barriers stop waiting for this rank.
//
// The endpoint is used up: a later Exchange on it fails, and a later
// Finish changes nothing.
func (t *Transport) Finish(steps int) {
	t.mu.Lock()
	if t.localFin >= 0 {
		t.mu.Unlock()
		return
	}
	t.localFin = steps
	t.fins[t.rank] = steps
	// Traffic for steps this rank never reaches is garbage now.
	for s := range t.steps {
		if s >= steps {
			delete(t.steps, s)
		}
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	frame := appendFrame(nil, frameFin, appendU32Body(nil, t.rank, steps))
	for q := 0; q < t.np; q++ {
		if q == t.rank {
			continue
		}
		_ = t.sendTo(q, frame, true)
	}
}

// Abort implements bsp.Transport: poison the local barrier and broadcast
// the failure. When err already names a failed rank (*bsp.RankFailedError)
// the blame is forwarded as-is; otherwise this rank is the culprit (its
// program returned an error, panicked, or its context was cancelled).
func (t *Transport) Abort(err error) {
	culprit := t.rank
	step := 0
	var rfe *bsp.RankFailedError
	if errors.As(err, &rfe) {
		culprit = rfe.Rank
		step = rfe.Step
	} else {
		t.mu.Lock()
		step = t.curStep
		t.mu.Unlock()
	}
	t.mu.Lock()
	if t.failed == nil {
		t.failed = err
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	t.broadcastAbort(culprit, step, err.Error())
}

// Close implements bsp.Transport: stop the listener, close every
// connection, wake any blocked exchange, and join all reader goroutines.
// Idempotent.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	accepted := t.accepted
	t.accepted = nil
	t.cond.Broadcast()
	t.mu.Unlock()

	t.ln.Close()
	for _, c := range accepted {
		c.Close()
	}
	for _, oc := range t.out {
		oc.mu.Lock()
		if oc.c != nil {
			oc.c.Close()
			oc.c = nil
		}
		oc.mu.Unlock()
	}
	t.readers.Wait()
	return nil
}
