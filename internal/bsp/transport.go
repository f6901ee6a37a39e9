package bsp

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Transport is one rank's endpoint of a superstep message exchange. The
// in-process MemTransport is the default; internal/bsp/tcptransport
// implements the same contract over one TCP listener per rank so ranks can
// live in separate processes (and on separate machines).
//
// A Transport endpoint belongs to exactly one rank of one run and is driven
// by that rank's goroutine only; implementations need not support
// concurrent calls into the same endpoint (Abort and Close, which other
// goroutines use to tear a run down, are the exception and must be safe to
// call concurrently with everything else).
type Transport interface {
	// Rank returns this endpoint's rank in [0, NProcs).
	Rank() int
	// NProcs returns the number of ranks in the run.
	NProcs() int
	// Exchange ends superstep `step` (0-based): it hands the rank's
	// outgoing messages to the exchange, participates in the global
	// barrier, and returns the messages addressed to this rank, sorted by
	// (From, Seq). An error means the run is poisoned — a peer failed,
	// timed out, or aborted — and the rank must unwind; for remote
	// transports the error is typically a *RankFailedError naming the
	// failed rank.
	Exchange(step int, outgoing []Message) ([]Message, error)
	// Finish reports that the rank's program completed after `steps`
	// supersteps. Remaining ranks keep synchronising among themselves; the
	// finished rank takes no further part in barriers. It uses the
	// endpoint up: a later Exchange (a second run) fails at once instead
	// of waiting for a barrier no peer will reach again.
	Finish(steps int)
	// Abort poisons the run: every rank blocked in Exchange (local or, for
	// remote transports, on any peer) unwinds with an error, and further
	// Exchange calls fail immediately. Safe to call from any goroutine and
	// more than once; the first error wins.
	Abort(err error)
	// Close releases the endpoint's resources (sockets, goroutines).
	// Idempotent. After Close, Exchange fails immediately.
	Close() error
}

// RankFailedError reports that a rank of a distributed run failed — it
// returned an error, timed out, or its connection was lost — identifying
// the failed rank and the superstep at which the failure was observed.
// Every surviving rank of the run unwinds with a *RankFailedError naming
// the same culprit.
type RankFailedError struct {
	// Rank is the rank that failed.
	Rank int
	// Step is the superstep at which the failure was observed.
	Step int
	// Cause describes the failure.
	Cause error
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("bsp: rank %d failed at superstep %d: %v", e.Rank, e.Step, e.Cause)
}

// Unwrap returns the underlying cause.
func (e *RankFailedError) Unwrap() error { return e.Cause }

// TransportStats holds wire-level counters for one rank's transport
// endpoint. The in-process memory transport has no wire and reports none.
type TransportStats struct {
	// Dials is the number of connection attempts made (including retries).
	Dials int64
	// Retries is the number of dial attempts beyond the first per peer.
	Retries int64
	// FramesSent and FramesRecv count protocol frames on the wire.
	FramesSent int64
	FramesRecv int64
	// BytesSent and BytesRecv count bytes on the wire, framing included.
	BytesSent int64
	BytesRecv int64
	// MaxStepSeconds is the longest single superstep exchange (barrier
	// wait included) observed by this rank.
	MaxStepSeconds float64
}

// TransportStatser is implemented by transports that keep wire-level
// counters; RunRank copies them into Stats.Transport.
type TransportStatser interface {
	TransportStats() TransportStats
}

// SortMessages orders a delivered message batch deterministically: by
// sender rank, then by the sender's send order (Seq). Every Transport
// returns Exchange batches in this order, which is what keeps distributed
// results byte-identical across transports.
func SortMessages(msgs []Message) {
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].From != msgs[j].From {
			return msgs[i].From < msgs[j].From
		}
		return msgs[i].Seq < msgs[j].Seq
	})
}

// runOne drives one rank function over its transport, translating panics
// and errors into the abort protocol. It returns the rank's error: nil on
// success, the rank's own failure (primary), or an abortError when the rank
// was unwound by a failure elsewhere (secondary).
func runOne(t Transport, proc *Proc, fn func(*Proc) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if abort, ok := r.(abortError); ok {
				// The rank was unwound because the run is already
				// poisoned; keep the secondary error as-is.
				err = abort
				return
			}
			err = fmt.Errorf("bsp: rank %d panicked: %v", proc.rank, r)
			t.Abort(err)
		}
	}()
	if err := fn(proc); err != nil {
		t.Abort(fmt.Errorf("bsp: rank %d failed: %w", proc.rank, err))
		return err
	}
	t.Finish(proc.step)
	return nil
}

// RunRank executes fn as rank t.Rank() of an NProcs()-rank run over the
// given transport — one process of a multi-process BSP job. It returns this
// rank's local statistics (per-rank slices filled at the local index only;
// Stats.Transport populated when the transport keeps wire counters).
//
// Cancellation mirrors RunCtx: when ctx is cancelled the transport is
// aborted, the rank unwinds from whatever barrier it is blocked at, and
// RunRank returns ctx.Err(). A peer failure surfaces as the transport's
// error — for TCP, a *RankFailedError identifying the failed rank.
//
// RunRank does not close the transport; callers own its lifecycle.
func RunRank(ctx context.Context, t Transport, fn func(*Proc) error) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	np := t.NProcs()
	rank := t.Rank()
	if rank < 0 || rank >= np {
		return nil, fmt.Errorf("bsp: transport rank %d out of range [0,%d)", rank, np)
	}
	stats := newStats(np)
	statsMu := new(sync.Mutex)

	watcherDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				t.Abort(ctx.Err())
			case <-watcherDone:
			}
		}()
	}

	proc := &Proc{rank: rank, np: np, t: t, stats: stats, statsMu: statsMu}
	err := runOne(t, proc, fn)
	close(watcherDone)

	if ts, ok := t.(TransportStatser); ok {
		tstats := ts.TransportStats()
		stats.Transport = &tstats
	}
	if err != nil {
		if abort, ok := err.(abortError); ok {
			cause := abort.err
			if ctxErr := ctx.Err(); ctxErr != nil {
				// The local cancellation tore the run down.
				return stats, ctxErr
			}
			return stats, cause
		}
		return stats, err
	}
	return stats, nil
}

// RunCluster drives every endpoint of a connected transport set (such as
// MemCluster's) through RunRank concurrently — a single-process stand-in
// for a multi-process run, used by tests and fault-injection harnesses. It
// returns each rank's local statistics and error, indexed by rank.
func RunCluster(ctx context.Context, ts []Transport, fn func(*Proc) error) ([]*Stats, []error) {
	stats := make([]*Stats, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stats[r], errs[r] = RunRank(ctx, ts[r], fn)
		}(r)
	}
	wg.Wait()
	return stats, errs
}
