package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bitutil"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/index"
	"genomeatscale/internal/minhash"
	"genomeatscale/internal/samplefile"
	"genomeatscale/internal/sparse"
)

// A replay takes a piece of the workload's own data and times one public
// call into a layer in isolation. Replays run on the harness's goroutine
// with nothing else going on, so they say what the layer costs, not what
// it cost inside the overlapped run; the trace says that.

// replayRead times samplefile.Read over every file of the directory and
// returns the decode rate in MB of file per second.
func replayRead(dir string, ds *dataset) (mbPerS float64, err error) {
	var bytes int64
	start := time.Now()
	for _, name := range ds.names {
		path := filepath.Join(dir, name+".smp")
		if _, err := samplefile.Read(path); err != nil {
			return 0, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		bytes += info.Size()
	}
	return float64(bytes) / 1e6 / time.Since(start).Seconds(), nil
}

// batchReplay holds the batch-stage replays over batch 0 of the dataset.
type batchReplay struct {
	Rows          int // nonzeros of batch 0
	CompactS      float64
	PackS         float64
	GramS         float64
	GramWordOps   float64 // computed, not counted: see gramWordOps
	DenseColsFrac float64
	WordOccupancy float64
	WordRows      int
}

// replayBatch runs dist.Compact, bitmat.PackColumnsThreshold and
// Packed.GramAccumulateCtxArena on batch 0 of the dataset (the attribute
// range [0, m/batches)), each timed alone.
func replayBatch(ctx context.Context, ds *dataset, batches, workers int) (batchReplay, error) {
	var br batchReplay
	hi := ds.M / uint64(max(batches, 1))
	var rows []int64
	cols := make([][]uint64, ds.N)
	for j, s := range ds.samples {
		k := 0
		for k < len(s) && s[k] < hi {
			rows = append(rows, int64(s[k]))
			k++
		}
		cols[j] = s[:k]
	}
	br.Rows = len(rows)

	// Each call is repeated replayReps times and its median reported: one
	// sample of a 50 ms call is at the mercy of whatever else the host does.
	var nonzero []int64
	br.CompactS = medianSeconds(func() { nonzero = dist.Compact(rows) })

	// Position of every value in the compacted row list (Eq. 6), found by
	// the same two-pointer merge the engine uses; not part of any timing.
	rowsPerCol := make([][]int, ds.N)
	for j, vals := range cols {
		pos := make([]int, len(vals))
		ci := 0
		for k, v := range vals {
			for nonzero[ci] < int64(v) {
				ci++
			}
			pos[k] = ci
		}
		rowsPerCol[j] = pos
	}

	var packed *bitmat.Packed
	br.PackS = medianSeconds(func() { packed = bitmat.PackColumnsThreshold(rowsPerCol, len(nonzero), 64, bitmat.DenseAuto) })
	br.DenseColsFrac = float64(packed.DenseCols()) / float64(max(packed.Cols, 1))
	br.WordOccupancy = packed.WordOccupancy()
	br.WordRows = packed.WordRows

	into := sparse.MustDense[int64](ds.N, ds.N)
	arena := bitmat.NewArena()
	var err error
	br.GramS = medianSeconds(func() {
		if gerr := packed.GramAccumulateCtxArena(ctx, into, workers, arena); gerr != nil {
			err = gerr
		}
	})
	br.GramWordOps = gramWordOps(packed)
	return br, err
}

// replayReps is how often a batch-stage replay repeats its call.
const replayReps = 3

// medianSeconds runs fn replayReps times and returns its median duration.
func medianSeconds(fn func()) float64 {
	xs := make([]float64, replayReps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs)
}

// gramWordOps is the computed word-operation count of one Gram pass: each
// of the n(n+1)/2 column pairs reads the stored words of both columns (a
// dense column stores every word row), so the total is (n+1)/2 times the
// stored words. It is computed from the layout, not counted by the kernel.
func gramWordOps(p *bitmat.Packed) float64 {
	var stored float64
	for j := 0; j < p.Cols; j++ {
		if p.IsDense(j) {
			stored += float64(p.WordRows)
		} else {
			wordRows, _ := p.Col(j)
			stored += float64(len(wordRows))
		}
	}
	return stored * float64(p.Cols+1) / 2
}

// popcountReplay is the AND+popcount kernel rate at two working-set sizes.
type popcountReplay struct {
	CacheGwordsS float64
	MemGwordsS   float64
	SlabWords    int   // slab length both variants popcount at a time
	MemArrayMB   int64 // size of each of the two streamed arrays
	MemIs4xLLC   bool
}

// maxMemArrayBytes caps each streamed array of the memory-bound popcount
// replay; hosts that report a last-level cache above a quarter of it get a
// result marked as not meeting the 4x-LLC rule.
const maxMemArrayBytes = 128 << 20

// popcountSink keeps the replayed kernel's result alive.
var popcountSink int

// replayPopcount times bitutil.PopcountAndSlice — the dispatched kernel
// the dense Gram path and the query path call — on slabs of slabWords
// words: once on one cache-resident pair of slabs, once streaming through
// two arrays of at least four times the last-level cache (capped, and the
// result says so). Words per second count one AND+popcount per word pair;
// the bytes moved are twice eight per word, computed, not measured.
func replayPopcount(slabWords int, llcBytes int64) popcountReplay {
	slabWords = max(slabWords, 64)
	pr := popcountReplay{SlabWords: slabWords}
	fill := func(xs []uint64, seed uint64) {
		for i := range xs {
			seed = seed*6364136223846793005 + 1442695040888963407
			xs[i] = seed
		}
	}
	a, b := make([]uint64, slabWords), make([]uint64, slabWords)
	fill(a, 1)
	fill(b, 2)
	var words int
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for rep := 0; rep < 64; rep++ {
			popcountSink += bitutil.PopcountAndSlice(a, b)
		}
		words += 64 * slabWords
	}
	pr.CacheGwordsS = float64(words) / time.Since(start).Seconds() / 1e9

	arrayBytes := min(max(4*llcBytes, 32<<20), maxMemArrayBytes)
	pr.MemArrayMB = arrayBytes >> 20
	pr.MemIs4xLLC = llcBytes > 0 && arrayBytes >= 4*llcBytes
	n := int(arrayBytes/8) / slabWords * slabWords
	big1, big2 := make([]uint64, n), make([]uint64, n)
	fill(big1, 3)
	fill(big2, 4)
	start = time.Now()
	for off := 0; off < n; off += slabWords {
		popcountSink += bitutil.PopcountAndSlice(big1[off:off+slabWords], big2[off:off+slabWords])
	}
	pr.MemGwordsS = float64(n) / time.Since(start).Seconds() / 1e9
	return pr
}

// indexReplay holds the replays of the index layers on a private copy of
// the index file.
type indexReplay struct {
	OpenS          float64
	LoadS          float64
	QueryDirectMS  []float64
	AppendDirectMS []float64
	SketchBuildS   float64
}

// directQueries bounds the queries replayed straight on the corpus.
const directQueries = 500

// replayIndex times index.Open, index.Load, and Corpus.Query and
// Corpus.Append called directly on a copy of the index (Append stays
// durable: the copy is file-backed), and minhash.Builder over the corpus.
func replayIndex(ctx context.Context, spec serveSpec, in *serveInputs, indexPath string) (indexReplay, error) {
	var ir indexReplay
	copyPath := indexPath + ".replay"
	if err := copyFile(indexPath, copyPath); err != nil {
		return ir, err
	}
	start := time.Now()
	mapped, err := index.Open(copyPath)
	if err != nil {
		return ir, err
	}
	ir.OpenS = time.Since(start).Seconds()
	if err := mapped.Close(); err != nil {
		return ir, err
	}
	start = time.Now()
	c, err := index.Load(copyPath)
	if err != nil {
		return ir, err
	}
	ir.LoadS = time.Since(start).Seconds()

	for k := 0; k < min(directQueries, len(in.queries)); k++ {
		q := in.queries[k]
		start = time.Now()
		if _, err := c.Query(ctx, q.Values, index.QueryOptions{TopK: spec.TopK, Threshold: q.Threshold}); err != nil {
			return ir, err
		}
		ir.QueryDirectMS = append(ir.QueryDirectMS, float64(time.Since(start))/1e6)
	}
	for _, a := range in.appends {
		start = time.Now()
		if _, err := c.Append(a.Name, a.Values); err != nil {
			return ir, err
		}
		ir.AppendDirectMS = append(ir.AppendDirectMS, float64(time.Since(start))/1e6)
	}

	start = time.Now()
	for _, s := range in.corpus.samples {
		b, err := minhash.NewBuilder(spec.SketchK)
		if err != nil {
			return ir, err
		}
		b.Add(s)
		b.Sketch()
	}
	ir.SketchBuildS = time.Since(start).Seconds()
	return ir, os.Remove(copyPath)
}

func copyFile(src, dst string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := io.Copy(out, in); err != nil {
		return fmt.Errorf("copying %s: %w", src, err)
	}
	return nil
}
