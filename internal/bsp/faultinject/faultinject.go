// Package faultinject wraps a bsp.Transport with deterministic,
// per-superstep fault injection — dropped, duplicated, and delayed
// messages, plus abrupt connection severing — so the runtime's failure
// semantics can be exercised in tests without real network failures.
//
// Faults are declared as Rules matched by superstep and destination rank.
// The wrapper sits between the rank's Proc and any inner transport (memory
// or TCP); it perturbs only the local rank's view of the exchange, exactly
// like a misbehaving NIC or peer would.
package faultinject

import (
	"fmt"
	"math/rand"
	"time"

	"genomeatscale/internal/bsp"
)

// Mode is the kind of fault a Rule injects.
type Mode int

const (
	// Drop removes matching outgoing messages before they reach the inner
	// transport — the peer never sees them.
	Drop Mode = iota
	// Duplicate sends matching outgoing messages twice (same Seq), the
	// classic at-least-once network pathology.
	Duplicate
	// Delay sleeps Rule.Delay before the matching superstep's exchange,
	// simulating a slow peer; a delay past the transport's step deadline
	// turns this rank into the timeout victim.
	Delay
	// Sever closes the inner transport at the matching superstep, before
	// the exchange — an abrupt process death. The local Exchange returns
	// an error; over TCP, peers observe the closed connections.
	Sever
)

func (m Mode) String() string {
	switch m {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	case Sever:
		return "sever"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Rule matches faults by superstep and destination rank. Step -1 matches
// every superstep; Peer -1 matches messages to every destination (and is
// the only sensible value for Delay and Sever, which are not per-message).
type Rule struct {
	Mode  Mode
	Step  int           // superstep to fire at; -1 = every superstep
	Peer  int           // destination rank to match; -1 = all
	Delay time.Duration // Delay mode only
}

func (r Rule) matchesStep(step int) bool { return r.Step == -1 || r.Step == step }
func (r Rule) matchesPeer(peer int) bool { return r.Peer == -1 || r.Peer == peer }

// Transport wraps an inner bsp.Transport with fault rules.
type Transport struct {
	inner     bsp.Transport
	rules     []Rule
	rng       *rand.Rand
	maxJitter time.Duration
	sleep     func(time.Duration) // time.Sleep; tests record the requested delays instead
}

// Wrap returns a transport that applies the given rules on top of inner.
func Wrap(inner bsp.Transport, rules ...Rule) *Transport {
	return &Transport{inner: inner, rules: rules, sleep: time.Sleep}
}

// WrapSeeded is Wrap plus a seeded pseudo-random extra delay in
// [0, maxJitter) before every superstep exchange — reproducible timing
// perturbation for stress tests. The same seed yields the same schedule.
func WrapSeeded(inner bsp.Transport, seed int64, maxJitter time.Duration, rules ...Rule) *Transport {
	return &Transport{
		inner:     inner,
		rules:     rules,
		rng:       rand.New(rand.NewSource(seed)),
		maxJitter: maxJitter,
		sleep:     time.Sleep,
	}
}

// Rank returns the inner transport's rank.
func (t *Transport) Rank() int { return t.inner.Rank() }

// NProcs returns the inner transport's rank count.
func (t *Transport) NProcs() int { return t.inner.NProcs() }

// Exchange applies the matching rules — delays and severs first, then
// per-message drops and duplicates — and forwards the perturbed batch to
// the inner transport.
func (t *Transport) Exchange(step int, outgoing []bsp.Message) ([]bsp.Message, error) {
	if t.rng != nil && t.maxJitter > 0 {
		t.sleep(time.Duration(t.rng.Int63n(int64(t.maxJitter))))
	}
	for _, r := range t.rules {
		if !r.matchesStep(step) {
			continue
		}
		switch r.Mode {
		case Delay:
			t.sleep(r.Delay)
		case Sever:
			t.inner.Close()
			return nil, fmt.Errorf("faultinject: rank %d severed at superstep %d", t.Rank(), step)
		}
	}
	out := make([]bsp.Message, 0, len(outgoing))
	for _, m := range outgoing {
		dropped := false
		dups := 0
		for _, r := range t.rules {
			if !r.matchesStep(step) || !r.matchesPeer(m.To) {
				continue
			}
			switch r.Mode {
			case Drop:
				dropped = true
			case Duplicate:
				dups++
			}
		}
		if dropped {
			continue
		}
		out = append(out, m)
		for i := 0; i < dups; i++ {
			out = append(out, m)
		}
	}
	return t.inner.Exchange(step, out)
}

// Finish forwards to the inner transport.
func (t *Transport) Finish(steps int) { t.inner.Finish(steps) }

// Abort forwards to the inner transport.
func (t *Transport) Abort(err error) { t.inner.Abort(err) }

// Close forwards to the inner transport.
func (t *Transport) Close() error { return t.inner.Close() }

// TransportStats forwards the inner transport's wire counters when it
// keeps any.
func (t *Transport) TransportStats() bsp.TransportStats {
	if ts, ok := t.inner.(bsp.TransportStatser); ok {
		return ts.TransportStats()
	}
	return bsp.TransportStats{}
}
