package bsp

import "fmt"

// The collectives below mirror the MPI operations the paper's Cyclops
// backend relies on (broadcast, reduction, all-to-all redistribution).
// Each collective is implemented directly on top of the BSP point-to-point
// layer so its communication volume and superstep count are visible to the
// accounting in Stats. Programs must call collectives in the same order on
// every rank (SPMD), which is how the reserved tags stay aligned.

// Bcast distributes root's value to every rank and returns it. One
// superstep; root injects (p-1)·|x| bytes, matching the allreduce-versus-
// pointwise trade-off the paper discusses for MapReduce-style solutions.
func Bcast[T any](p *Proc, root int, x T) T {
	tag := p.nextCollectiveTag()
	if p.Rank() == root {
		for r := 0; r < p.NProcs(); r++ {
			if r != root {
				p.send(r, tag, x)
			}
		}
	}
	p.Sync()
	if p.Rank() == root {
		return x
	}
	msgs := p.RecvAll(tag)
	if len(msgs) != 1 {
		//gas:invariant superstep protocol invariant: exactly the root sends on this tag in this superstep, so one message arrives
		panic(fmt.Sprintf("bsp: Bcast expected 1 message, got %d", len(msgs)))
	}
	return msgs[0].Payload.(T)
}

// Gather collects each rank's value at root. Root receives values indexed
// by sender rank; other ranks receive nil.
func Gather[T any](p *Proc, root int, x T) []T {
	tag := p.nextCollectiveTag()
	if p.Rank() != root {
		p.send(root, tag, x)
	}
	p.Sync()
	if p.Rank() != root {
		return nil
	}
	out := make([]T, p.NProcs())
	out[root] = x
	for _, m := range p.RecvAll(tag) {
		out[m.From] = m.Payload.(T)
	}
	return out
}

// AllGather collects each rank's value on every rank, indexed by rank.
func AllGather[T any](p *Proc, x T) []T {
	tag := p.nextCollectiveTag()
	for r := 0; r < p.NProcs(); r++ {
		if r != p.Rank() {
			p.send(r, tag, x)
		}
	}
	p.Sync()
	out := make([]T, p.NProcs())
	out[p.Rank()] = x
	for _, m := range p.RecvAll(tag) {
		out[m.From] = m.Payload.(T)
	}
	return out
}

// Reduce folds every rank's value at root with op (associative and
// commutative); only root receives the result (ok=true at root).
func Reduce[T any](p *Proc, root int, x T, op func(T, T) T) (T, bool) {
	vals := Gather(p, root, x)
	if p.Rank() != root {
		var zero T
		return zero, false
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = op(acc, v)
	}
	return acc, true
}

// AllReduce folds every rank's value with op and returns the result on all
// ranks. Two supersteps (gather at rank 0, broadcast back).
func AllReduce[T any](p *Proc, x T, op func(T, T) T) T {
	acc, _ := Reduce(p, 0, x, op)
	return Bcast(p, 0, acc)
}

// AllReduceSlice elementwise-folds equal-length slices across ranks; it is
// the reduction used to sum per-layer Gram contributions and per-batch
// column counts (Eq. 4).
func AllReduceSlice[T any](p *Proc, xs []T, op func(T, T) T) []T {
	return AllReduce(p, append([]T(nil), xs...), func(a, b []T) []T {
		if len(a) != len(b) {
			//gas:invariant all ranks fold equal-length slices by the collective's contract; a mismatch is a protocol bug, not input
			panic(fmt.Sprintf("bsp: AllReduceSlice length mismatch %d vs %d", len(a), len(b)))
		}
		out := make([]T, len(a))
		for i := range a {
			out[i] = op(a[i], b[i])
		}
		return out
	})
}

// AllToAll delivers out[r] to rank r and returns the slice of values this
// rank received, indexed by sender. out must have length NProcs. One
// superstep; this is the redistribution primitive the grid engine routes
// packed words to their panel homes with.
func AllToAll[T any](p *Proc, out []T) []T {
	if len(out) != p.NProcs() {
		//gas:invariant callers build the bucket slice with make(..., NProcs) from this same world; a mismatch is a caller bug
		panic(fmt.Sprintf("bsp: AllToAll requires %d output buckets, got %d", p.NProcs(), len(out)))
	}
	tag := p.nextCollectiveTag()
	for r := 0; r < p.NProcs(); r++ {
		if r != p.Rank() {
			p.send(r, tag, out[r])
		}
	}
	p.Sync()
	in := make([]T, p.NProcs())
	in[p.Rank()] = out[p.Rank()]
	for _, m := range p.RecvAll(tag) {
		in[m.From] = m.Payload.(T)
	}
	return in
}
