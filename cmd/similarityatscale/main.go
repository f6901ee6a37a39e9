// Command similarityatscale computes all-pairs Jaccard similarities between
// generic categorical data samples — the domain-agnostic use of the
// SimilarityAtScale algorithm the paper emphasises (Sections II-C to II-G).
//
// Each input file is one data sample; each non-empty line holds one
// non-negative integer attribute value (the paper's Listing 2: "One file
// line contains one data value"). Every run streams the engine's finalized
// tiles into the sinks its flags ask for: -output writes the similarity
// (or -distance) matrix as TSV row by row as the tiles arrive, -top-k and
// -threshold retain only the requested sample pairs, and without either
// the matrix is assembled in memory and printed.
//
// With -dir the samples are not loaded up front: the directory's files
// (text or binary encoding, auto-detected) are read out-of-core during the
// run — prefetched -prefetch samples ahead of the scan, loaded in
// parallel, and evicted so at most ~2 prefetch windows stay resident — and
// a corrupt or unreadable file aborts the run with an error naming it
// instead of panicking. Out-of-core mode requires an explicit -m.
//
// Examples:
//
//	similarityatscale -m 1000000 -procs 4 -batches 2 -workers 1 -output sim.tsv a.txt b.txt c.txt
//	similarityatscale -m 1000000 -dir samples/ -pattern '*.smp' -prefetch 128 -top-k 20
//
// With -transport tcp the process runs as ONE rank of a multi-process BSP
// job: every process is started with identical flags except -rank, the
// peer list names each rank's listen address, and rank 0 writes or
// prints the matrix while the other ranks report completion only. The
// cmd/bsprank launcher starts all ranks of such a job on one machine:
//
//	similarityatscale -m 1000000 -transport tcp -rank 0 -peers :9000,:9001 a.txt b.txt &
//	similarityatscale -m 1000000 -transport tcp -rank 1 -peers :9000,:9001 a.txt b.txt
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/core"
	"genomeatscale/internal/output"
	"genomeatscale/internal/tile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "similarityatscale:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) (err error) {
	fs := cliutil.NewFlagSet("similarityatscale")
	maxVal := fs.Uint64("m", 0, "number of possible attribute values (0 = derive from the data; required with -dir)")
	compute := cliutil.BindCompute(fs)
	transport := cliutil.BindTransport(fs)
	ingest := cliutil.BindIngest(fs)
	outPath := fs.String("output", "", "write the similarity matrix to this TSV file (default: print)")
	distance := fs.Bool("distance", false, "report Jaccard distances (1 − J) instead of similarities")
	indexFlags := cliutil.BindIndex(fs)
	statsJSON := cliutil.BindStatsJSON(fs)
	profile := cliutil.BindProfile(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := profile.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()
	files := fs.Args()

	var ds core.Dataset
	m := *maxVal
	switch {
	case ingest.Active():
		// Out-of-core: the files load lazily during the run — in parallel,
		// prefetched ahead of the scan, and evicted to stay within the
		// resident budget — so the collection never has to fit in memory.
		// The universe must be declared up front: deriving it would force a
		// full scan before the run.
		if len(files) != 0 {
			return fmt.Errorf("-dir and positional sample files are mutually exclusive")
		}
		if m == 0 {
			return fmt.Errorf("-dir needs an explicit attribute universe: pass -m")
		}
		dds, err := ingest.Open(m)
		if err != nil {
			return err
		}
		if dds.NumSamples() < 2 {
			return fmt.Errorf("need at least two sample files, got %d", dds.NumSamples())
		}
		ds = dds
	default:
		if len(files) < 2 {
			return fmt.Errorf("need at least two sample files, got %d", len(files))
		}
		names := make([]string, 0, len(files))
		samples := make([][]uint64, 0, len(files))
		var maxSeen uint64
		for _, path := range files {
			values, err := readValues(path)
			if err != nil {
				return err
			}
			for _, v := range values {
				if v > maxSeen {
					maxSeen = v
				}
			}
			names = append(names, strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)))
			samples = append(samples, values)
		}
		if m == 0 {
			m = maxSeen + 1
		}
		var err error
		ds, err = core.NewInMemoryDataset(names, samples, m)
		if err != nil {
			return err
		}
	}

	label, field := "similarity", output.MatrixSimilarity
	if *distance {
		label, field = "distance", output.MatrixDistance
	}
	pairs := compute.PairSink()
	if pairs != nil {
		if transport.TCP() {
			return fmt.Errorf("streaming mode (-top-k/-threshold) runs in-process; drop -transport tcp")
		}
		if *outPath != "" {
			return fmt.Errorf("streaming mode (-top-k/-threshold) does not gather the matrix; drop -output")
		}
		if *distance {
			return fmt.Errorf("streaming mode (-top-k/-threshold) reports similarity pairs (distance = 1 − jaccard); drop -distance")
		}
	}
	opts := compute.Options()
	closeTransport, err := transport.Setup(&opts)
	if err != nil {
		return err
	}
	defer closeTransport()
	e, err := core.NewEngine(opts)
	if err != nil {
		return err
	}

	// Only the root process holds output: the other ranks of a TCP job
	// stream into no sink and never touch the -output path.
	var sinks cliutil.Sinks
	defer func() { err = sinks.Finish(err) }()
	var collect *tile.Collect
	if transport.Root() {
		switch {
		case pairs != nil:
			sinks.Add(pairs)
		case *outPath != "":
			if err := sinks.AddFile(*outPath, output.FormatTSV, field); err != nil {
				return err
			}
		default:
			collect = tile.NewCollect()
			sinks.Add(collect)
		}
	}
	res, err := e.Stream(context.Background(), ds, sinks.Sink())
	if err = sinks.Finish(err); err != nil {
		return err
	}

	if !transport.Root() {
		// Rank 0 writes the output and the index/stats artifacts for the
		// whole job.
		fmt.Fprintf(out, "rank %d of %d: run complete in %.3fs\n",
			*transport.Rank, opts.Procs, res.Stats.TotalSeconds)
		cliutil.PrintComm(out, &res.Stats)
		return nil
	}
	fmt.Fprintf(out, "streamed %d×%d Jaccard %s matrix over m=%d attributes in %.3fs (%d tiles)\n",
		res.N, res.N, label, m, res.Stats.TotalSeconds, res.Stats.TilesEmitted)
	if err := cliutil.Report(out, &res.Stats, *statsJSON, indexFlags, ds, opts); err != nil {
		return err
	}
	switch {
	case pairs != nil:
		kept := compute.Pairs(pairs)
		fmt.Fprintf(out, "\n%d retained sample pairs:\n", len(kept))
		return output.WritePairs(out, res.Names, kept)
	case *outPath != "":
		fmt.Fprintf(out, "%s matrix written to %s\n", label, *outPath)
	case *distance:
		cliutil.PrintMatrix(out, res.Names, collect.D())
	default:
		cliutil.PrintMatrix(out, res.Names, collect.S())
	}
	return nil
}

func readValues(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []uint64
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		out = append(out, v)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
