package core

import (
	"fmt"
	"math/rand"
	"testing"

	"genomeatscale/internal/sparse"
)

// TestEquivalenceGrid cross-checks the grid target, the local target and
// the ExactJaccard oracle over the full configuration grid of
// Procs ∈ {2, 4, 8, 9, 12}, Replication ∈ {1, 2, 3}, BatchCount ∈ {1, 3, 7},
// MaskBits ∈ {8, 32, 64}, Workers ∈ {1, 2, 4} and DenseThreshold ∈
// {-1 (never dense), 0 (auto ≈ ¼ word rows), 1 (every non-empty column
// dense)}, to 1e-12. Sample counts are deliberately ragged (prime or
// otherwise not divisible by the grid dimensions) so block boundaries,
// empty blocks and uneven cyclic ownership are all exercised. The Workers
// dimension pins down the shared-memory kernel and the DenseThreshold
// dimension the hybrid storage layout: every sequential run must produce a
// B matrix byte-identical (exact int64 equality) to the Workers: 1,
// sparse-only serial baseline, and every distributed run must agree
// regardless of its local worker count or storage layout.
func TestEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	intEq := func(a, b int64) bool { return a == b }
	intEqF := func(a, b float64) bool { return a == b }
	workerDim := []int{1, 2, 4}
	thresholdDim := []int{-1, 0, 1}

	for _, procs := range []int{2, 4, 8, 9, 12} {
		// Ragged n relative to every grid this procs count can form.
		n := 13
		if procs == 4 || procs == 8 {
			n = 11
		}
		m := uint64(300 + rng.Intn(900))
		ds := randomDataset(rng, n, m, 0.03+rng.Float64()*0.05)
		exact := ExactJaccard(ds)

		for _, batches := range []int{1, 3, 7} {
			for _, maskBits := range []int{8, 32, 64} {
				seqOpts := DefaultOptions()
				seqOpts.BatchCount = batches
				seqOpts.MaskBits = maskBits
				seqOpts.Workers = 1         // the serial baseline every other point must match
				seqOpts.DenseThreshold = -1 // ... with the historical sparse-only storage
				seq, err := run(ds, seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !sparse.Equal(exact, seq.S, approxEqual) {
					t.Fatalf("batches=%d b=%d: sequential S differs from exact", batches, maskBits)
				}
				for _, workers := range workerDim {
					for _, dt := range thresholdDim {
						for _, autotune := range []bool{false, true} {
							if workers == 1 && dt == -1 && !autotune {
								continue // the baseline itself
							}
							wOpts := seqOpts
							wOpts.Workers = workers
							wOpts.DenseThreshold = dt
							if autotune {
								// The Autotune dimension: with the grid's own
								// dimensions pinned explicitly, the tuner may
								// only fill the remaining ones (Procs,
								// TileRows) — the results must stay
								// byte-identical either way.
								wOpts.Autotune = true
								wOpts.SetExplicit(FieldBatchCount | FieldMaskBits | FieldDenseThreshold | FieldWorkers)
							}
							seqW, err := run(ds, wOpts)
							if err != nil {
								t.Fatal(err)
							}
							if !sparse.Equal(seq.B, seqW.B, intEq) {
								t.Fatalf("batches=%d b=%d w=%d dt=%d auto=%v: sequential B not byte-identical to sparse serial",
									batches, maskBits, workers, dt, autotune)
							}
							if !sparse.Equal(seq.S, seqW.S, intEqF) || !sparse.Equal(seq.D, seqW.D, intEqF) {
								t.Fatalf("batches=%d b=%d w=%d dt=%d auto=%v: sequential S/D not byte-identical to sparse serial",
									batches, maskBits, workers, dt, autotune)
							}
							if autotune && seqW.Stats.Tuning == nil {
								t.Fatalf("autotuned run recorded no tuning report")
							}
						}
					}
				}

				for _, repl := range []int{1, 2, 3} {
					for _, workers := range workerDim {
						for _, dt := range thresholdDim {
							name := fmt.Sprintf("p%d_c%d_l%d_b%d_w%d_dt%d", procs, repl, batches, maskBits, workers, dt)
							t.Run(name, func(t *testing.T) {
								opts := seqOpts
								opts.Procs = procs
								opts.Replication = repl
								opts.Workers = workers
								opts.DenseThreshold = dt
								res, err := run(ds, opts)
								if err != nil {
									t.Fatal(err)
								}
								if !sparse.Equal(exact, res.S, approxEqual) {
									t.Error("distributed S differs from exact")
								}
								if !sparse.Equal(seq.S, res.S, approxEqual) {
									t.Error("distributed S differs from sequential")
								}
								if !sparse.Equal(seq.D, res.D, approxEqual) {
									t.Error("distributed D differs from sequential")
								}
								if !sparse.Equal(seq.B, res.B, intEq) {
									t.Error("distributed B differs from sequential")
								}
								for i := 0; i < n; i++ {
									if res.Cardinalities[i] != seq.Cardinalities[i] {
										t.Fatalf("cardinality mismatch for sample %d", i)
									}
								}
								comm := res.Stats.Comm
								if comm == nil {
									t.Fatal("distributed run must record communication stats")
								}
								if comm.Supersteps == 0 || len(comm.HRelations) != comm.Supersteps {
									t.Errorf("inconsistent superstep accounting: %d steps, %d h-relations",
										comm.Supersteps, len(comm.HRelations))
								}
								if comm.TotalBytes == 0 || comm.SumHRelations() == 0 {
									t.Error("multi-rank run must report nonzero per-superstep byte volumes")
								}
							})
						}
					}
				}
			}
		}
	}
}
