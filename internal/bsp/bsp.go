// Package bsp provides a Bulk Synchronous Parallel runtime that stands in
// for MPI in this Go reproduction of SimilarityAtScale.
//
// The paper analyses the algorithm in the BSP model (Section III-C): p
// processors, a per-superstep synchronisation cost α, a per-byte bandwidth
// cost β, and a per-operation compute cost γ. This package executes SPMD
// rank programs with true superstep semantics — messages sent during a
// superstep are delivered only after the global synchronisation — and
// records, per superstep, exactly how many bytes each rank injected and
// received (the h-relation). Those measurements feed the cost model in
// internal/costmodel, which converts them into projected wall-clock times
// on a Stampede2-like machine, reproducing the paper's scaling figures.
//
// The superstep exchange itself is pluggable (see Transport): Run and
// RunCtx execute every rank as a goroutine of one process over the
// in-process memory transport — the default, and the implementation the
// equivalence grid pins — while RunRank executes a single rank of a
// multi-process run over any Transport (internal/bsp/tcptransport provides
// the TCP implementation).
//
// Programs are SPMD: every rank runs the same function and must execute the
// same sequence of Sync and collective calls. A rank may finish early; the
// remaining ranks continue to synchronise among themselves.
package bsp

import (
	"context"
	"fmt"
	"sync"
)

// Message is a point-to-point message delivered at the next superstep
// boundary.
type Message struct {
	From, To int
	Tag      int
	// Seq is the per-sender send sequence number, assigned in Send order
	// over the whole run. Together with From it gives every delivered
	// message batch a deterministic order (see RecvAll), identical across
	// transports.
	Seq     int
	Payload any
	Bytes   int
}

// Stats aggregates communication and computation accounting for one Run.
//
// For in-process runs (Run, RunCtx) the statistics are global: every rank
// of the run contributes to the same Stats. For a RunRank over a remote
// transport each process observes only its own rank's traffic, so the
// per-rank slices are filled at the local rank's index only and HRelations
// holds the local rank's per-superstep max(sent, received) — a lower bound
// on the global h-relation.
type Stats struct {
	// Procs is the number of ranks.
	Procs int
	// Supersteps is the number of global synchronisations performed.
	Supersteps int
	// TotalBytes is the total volume of point-to-point traffic injected by
	// the ranks this Stats observed.
	TotalBytes int64
	// TotalMessages counts messages injected by the observed ranks.
	TotalMessages int64
	// HRelations[s] is the h-relation of superstep s: the maximum over
	// observed ranks of bytes sent or received in that superstep. The BSP
	// communication cost of the run is Σ_s (α + β·HRelations[s]).
	HRelations []int64
	// BytesSentPerRank[r] is the total bytes rank r injected.
	BytesSentPerRank []int64
	// BytesRecvPerRank[r] is the total bytes rank r received.
	BytesRecvPerRank []int64
	// FlopsPerRank[r] is the work rank r reported via AddFlops.
	FlopsPerRank []int64
	// MemWordsPerRank[r] is the peak memory (64-bit words) rank r reported
	// via NoteMemory.
	MemWordsPerRank []int64

	// Transport holds the wire-level counters of the run's transport
	// (dials, retries, bytes on the wire, max superstep exchange latency);
	// nil for the in-process memory transport, which has no wire.
	Transport *TransportStats
}

func newStats(p int) *Stats {
	return &Stats{
		Procs:            p,
		BytesSentPerRank: make([]int64, p),
		BytesRecvPerRank: make([]int64, p),
		FlopsPerRank:     make([]int64, p),
		MemWordsPerRank:  make([]int64, p),
	}
}

// MaxFlops returns the largest per-rank reported work (the critical path of
// the computation term F/p·γ in the cost model).
func (s *Stats) MaxFlops() int64 {
	var m int64
	for _, f := range s.FlopsPerRank {
		if f > m {
			m = f
		}
	}
	return m
}

// SumHRelations returns Σ_s HRelations[s], the total bandwidth-critical
// volume of the run.
func (s *Stats) SumHRelations() int64 {
	var t int64
	for _, h := range s.HRelations {
		t += h
	}
	return t
}

// memHub is the shared state behind one in-process run: the barrier, the
// staged messages of the current superstep, and the abort latch. It is pure
// message routing — statistics are accounted rank-side in Proc, identically
// for every transport.
type memHub struct {
	p int

	mu        sync.Mutex
	cond      *sync.Cond
	arrived   int
	finished  int
	gen       int
	aborted   bool
	abortErr  error
	staged    []Message // messages staged during the current superstep
	nextInbox [][]Message
}

func newMemHub(p int) *memHub {
	h := &memHub{p: p, nextInbox: make([][]Message, p)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// MemTransport is one rank's endpoint of the in-process memory transport:
// all ranks live in one process and the superstep exchange is a shared
// staging buffer behind a condition-variable barrier. It is the default
// transport of Run and RunCtx; MemCluster hands out wired endpoints for
// code that drives ranks through RunRank or RunCluster (tests, fault
// injection).
type MemTransport struct {
	hub      *memHub
	rank     int
	finished bool // the rank's run is over; guarded by hub.mu
}

// MemCluster returns p connected in-process transport endpoints, one per
// rank. Ranks driven over them (RunRank, RunCluster) behave exactly like a
// RunCtx run, except that statistics are per-rank rather than aggregated.
func MemCluster(p int) []Transport {
	hub := newMemHub(p)
	ts := make([]Transport, p)
	for r := 0; r < p; r++ {
		ts[r] = &MemTransport{hub: hub, rank: r}
	}
	return ts
}

// Rank returns this endpoint's rank.
func (t *MemTransport) Rank() int { return t.rank }

// NProcs returns the number of ranks in the run.
func (t *MemTransport) NProcs() int { return t.hub.p }

// Exchange ends one superstep: it stages this rank's outgoing messages,
// blocks until every still-running rank has done the same, and returns the
// messages addressed to this rank sorted by (From, Seq).
func (t *MemTransport) Exchange(step int, outgoing []Message) ([]Message, error) {
	h := t.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.aborted {
		return nil, h.abortErr
	}
	if t.finished {
		// The hub already counts this rank as finished; waiting here would
		// wait for a barrier that can never complete.
		return nil, fmt.Errorf("bsp: rank %d's memory transport endpoint already finished a run; an endpoint serves one run", t.rank)
	}
	h.staged = append(h.staged, outgoing...)
	gen := h.gen
	h.arrived++
	if h.arrived+h.finished == h.p {
		h.completeSuperstepLocked()
	} else {
		for gen == h.gen && !h.aborted {
			h.cond.Wait()
		}
		// An abort only fails this exchange if the barrier did not
		// complete; when both raced, the superstep finished for everyone
		// and the abort is observed at the next Exchange.
		if gen == h.gen && h.aborted {
			return nil, h.abortErr
		}
	}
	in := h.nextInbox[t.rank]
	h.nextInbox[t.rank] = nil
	SortMessages(in)
	return in, nil
}

// completeSuperstepLocked delivers staged messages and wakes all waiting
// ranks. Caller holds h.mu.
func (h *memHub) completeSuperstepLocked() {
	for _, m := range h.staged {
		h.nextInbox[m.To] = append(h.nextInbox[m.To], m)
	}
	h.staged = h.staged[:0]
	h.arrived = 0
	h.gen++
	h.cond.Broadcast()
}

// Finish marks the rank as done so remaining ranks can still complete
// supersteps among themselves. The endpoint is used up: a later Exchange
// on it fails, and a later Finish changes nothing.
func (t *MemTransport) Finish(step int) {
	h := t.hub
	h.mu.Lock()
	if t.finished {
		h.mu.Unlock()
		return
	}
	t.finished = true
	h.finished++
	if h.arrived+h.finished == h.p && h.arrived > 0 {
		h.completeSuperstepLocked()
	}
	h.mu.Unlock()
}

// Abort poisons the barrier: every rank blocked in Exchange unwinds with
// err, and subsequent Exchange calls fail immediately.
func (t *MemTransport) Abort(err error) {
	h := t.hub
	h.mu.Lock()
	if !h.aborted {
		h.aborted = true
		h.abortErr = err
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

// Close is a no-op: the memory transport holds no external resources.
func (t *MemTransport) Close() error { return nil }

// Proc is the handle a rank uses to communicate. It is only valid inside
// the function passed to Run/RunCtx/RunRank and must not be shared across
// ranks.
type Proc struct {
	rank int
	np   int
	t    Transport

	stats   *Stats
	statsMu *sync.Mutex

	pending []Message // messages queued for the next Sync
	inbox   []Message // messages delivered at previous Syncs
	collSeq int       // per-rank collective sequence number (tags < 0)
	sendSeq int       // per-rank send sequence number (Message.Seq)
	step    int       // supersteps this rank has completed
}

// Rank returns this rank's id in [0, NProcs).
func (p *Proc) Rank() int { return p.rank }

// NProcs returns the number of ranks in the run.
func (p *Proc) NProcs() int { return p.np }

// Step returns the number of supersteps this rank has completed.
func (p *Proc) Step() int { return p.step }

// abortError unwinds a rank when another rank failed or the transport
// poisoned the barrier.
type abortError struct{ err error }

func (a abortError) Error() string { return fmt.Sprintf("bsp: aborted: %v", a.err) }
func (a abortError) Unwrap() error { return a.err }

// Send queues a message for delivery to rank `to` after the next Sync. The
// byte size used for accounting is computed by PayloadBytes; user tags must
// be non-negative (negative tags are reserved for collectives).
func (p *Proc) Send(to, tag int, payload any) {
	if tag < 0 {
		//gas:invariant user tags are package-level constants in every caller; negative tags are reserved and this guards collective-protocol integrity
		panic("bsp: negative tags are reserved for collectives")
	}
	p.send(to, tag, payload)
}

func (p *Proc) send(to, tag int, payload any) {
	if to < 0 || to >= p.np {
		//gas:invariant destination ranks come from grid peers of this same world and are in [0, NProcs) by construction
		panic(fmt.Sprintf("bsp: destination rank %d out of range [0,%d)", to, p.np))
	}
	p.sendSeq++
	p.pending = append(p.pending, Message{
		From: p.rank, To: to, Tag: tag, Seq: p.sendSeq,
		Payload: payload, Bytes: PayloadBytes(payload),
	})
}

// AddFlops reports local computational work (arithmetic operations) for the
// cost model's γ term.
func (p *Proc) AddFlops(n int64) {
	if n <= 0 {
		return
	}
	p.statsMu.Lock()
	p.stats.FlopsPerRank[p.rank] += n
	p.statsMu.Unlock()
}

// NoteMemory reports a memory footprint (in 64-bit words); the per-rank
// maximum is retained. The batch planner uses this to check the M ≥ cn²/p
// requirement of the replication scheme.
func (p *Proc) NoteMemory(words int64) {
	p.statsMu.Lock()
	if words > p.stats.MemWordsPerRank[p.rank] {
		p.stats.MemWordsPerRank[p.rank] = words
	}
	p.statsMu.Unlock()
}

// Sync ends the current superstep: it hands this rank's outgoing messages
// to the transport, blocks until every still-running rank reaches Sync (the
// barrier), and makes the delivered messages available through RecvAll. A
// transport failure — a peer rank died, timed out or aborted — unwinds the
// rank; the run entry point returns the failure (for remote transports
// typically a *RankFailedError naming the failed rank).
func (p *Proc) Sync() {
	out := p.pending
	var sent int64
	for i := range out {
		sent += int64(out[i].Bytes)
	}
	nmsgs := int64(len(out))
	in, err := p.t.Exchange(p.step, out)
	p.pending = out[:0]
	if err != nil {
		//gas:invariant deliberate abort mechanism: a transport failure raises a typed abortError that the runner recovers and converts into a run error
		panic(abortError{err})
	}
	step := p.step
	p.step++
	var recv int64
	for i := range in {
		recv += int64(in[i].Bytes)
	}
	p.accountStep(step, sent, recv, nmsgs)
	p.inbox = append(p.inbox, in...)
}

// accountStep folds one completed superstep into the run statistics. The
// same rank-side accounting runs on every transport; in-process runs share
// one Stats across ranks (so HRelations is the global max), remote ranks
// keep a local view.
func (p *Proc) accountStep(step int, sent, recv, nmsgs int64) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	s := p.stats
	for len(s.HRelations) <= step {
		s.HRelations = append(s.HRelations, 0)
	}
	h := sent
	if recv > h {
		h = recv
	}
	if h > s.HRelations[step] {
		s.HRelations[step] = h
	}
	if step+1 > s.Supersteps {
		s.Supersteps = step + 1
	}
	s.BytesSentPerRank[p.rank] += sent
	s.BytesRecvPerRank[p.rank] += recv
	s.TotalBytes += sent
	s.TotalMessages += nmsgs
}

// RecvAll removes and returns all delivered messages carrying the given
// tag. Message order within a tag is deterministic across transports:
// messages are delivered sorted by (From, Seq) — sender rank first, then
// the sender's send order — so protocols that fold over a RecvAll batch
// produce byte-identical results over the in-process and TCP transports.
func (p *Proc) RecvAll(tag int) []Message {
	var out, keep []Message
	for _, m := range p.inbox {
		if m.Tag == tag {
			out = append(out, m)
		} else {
			keep = append(keep, m)
		}
	}
	p.inbox = keep
	return out
}

// nextCollectiveTag returns the reserved tag for the next collective call.
// SPMD programs call collectives in the same order on every rank, so the
// per-rank sequence numbers agree.
func (p *Proc) nextCollectiveTag() int {
	p.collSeq++
	return -p.collSeq
}

// Run executes fn on p ranks (goroutines of this process) and returns the
// aggregated statistics. If any rank returns an error or panics, the run is
// aborted and the first error is returned alongside the (partial)
// statistics.
func Run(p int, fn func(*Proc) error) (*Stats, error) {
	return RunCtx(context.Background(), p, fn)
}

// RunCtx is Run with cancellation: when ctx is cancelled the runtime aborts
// the run — every rank blocked at a superstep barrier is woken immediately
// and unwound, ranks in local compute phases observe the abort at their
// next Sync (or sooner, if the rank function polls ctx itself) — all
// rank goroutines are joined, and RunCtx returns ctx.Err() alongside the
// partial statistics. No goroutines outlive the call.
func RunCtx(ctx context.Context, p int, fn func(*Proc) error) (*Stats, error) {
	if p <= 0 {
		return nil, fmt.Errorf("bsp: number of ranks must be positive, got %d", p)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hub := newMemHub(p)
	stats := newStats(p)
	var statsMu sync.Mutex

	// The watcher turns context cancellation into a transport abort, waking
	// every rank parked at a barrier; it exits as soon as the ranks join.
	watcherDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				(&MemTransport{hub: hub}).Abort(ctx.Err())
			case <-watcherDone:
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := &MemTransport{hub: hub, rank: rank}
			proc := &Proc{rank: rank, np: p, t: tr, stats: stats, statsMu: &statsMu}
			errs[rank] = runOne(tr, proc, fn)
		}(r)
	}
	wg.Wait()
	close(watcherDone)
	// A primary rank error (anything a rank function returned or panicked
	// itself, as opposed to the secondary abortError unwinding it triggered
	// on its peers) always wins: it is the root cause, even when the
	// context was also cancelled while the run unwound.
	failed := false
	for _, err := range errs {
		if err != nil {
			failed = true
			if _, isAbort := err.(abortError); !isAbort {
				return stats, err
			}
		}
	}
	if err := ctx.Err(); err != nil && failed {
		// Only secondary abort errors remain: the cancellation itself tore
		// the run down, so callers observe ctx.Err(). A cancellation that
		// landed after every rank already completed did not abort any work
		// and the finished run is returned as a success.
		return stats, err
	}
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// PayloadBytes estimates the wire size of a payload for accounting. Common
// slice types are sized exactly; other values fall back to a single word.
// Types can override the estimate by implementing ByteSizer.
func PayloadBytes(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case ByteSizer:
		return x.ByteSize()
	case []byte:
		return len(x)
	case []uint64:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case []int:
		return 8 * len(x)
	case []float64:
		return 8 * len(x)
	case []int32:
		return 4 * len(x)
	case []uint32:
		return 4 * len(x)
	case []bool:
		return len(x)
	case string:
		return len(x)
	case bool, int8, uint8:
		return 1
	case int32, uint32, float32:
		return 4
	default:
		return 8
	}
}

// ByteSizer lets payload types report their exact wire size.
type ByteSizer interface {
	ByteSize() int
}
