// Command genomeatscale computes all-pairs Jaccard similarities and
// distances between genomic sequencing samples given as FASTA files, using
// the SimilarityAtScale algorithm — the Go counterpart of the paper's
// GenomeAtScale tool.
//
// Each input FASTA file is treated as one data sample: its sequences are
// decomposed into (canonical) k-mers, rare k-mers are dropped as noise, and
// the resulting k-mer sets are compared with the distributed pipeline.
//
// Example:
//
//	genomeatscale -k 19 -min-count 1 -procs 8 -batches 4 -workers 1 \
//	    -similarity sim.tsv -distance dist.tsv -newick tree.nwk sample1.fa sample2.fa ...
//
// Every run streams the engine's finalized tiles into the sinks its flags
// ask for: -similarity, -distance and -phylip each write their matrix row
// by row as the tiles arrive, -pairs-threshold retains the pairs at or
// above it, and only printing the matrix (no -similarity or -distance
// file) or -newick assembles the matrix in memory. With -top-k or
// -threshold only the requested sample pairs are retained (in memory
// bounded by the reduction, not by n²) and printed as a pair list instead
// of the full matrices.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/cluster"
	"genomeatscale/internal/core"
	"genomeatscale/internal/genome"
	"genomeatscale/internal/output"
	"genomeatscale/internal/tile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genomeatscale:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) (err error) {
	fs := cliutil.NewFlagSet("genomeatscale")
	k := fs.Int("k", 19, "k-mer length (1..31); the paper uses 19 for RNASeq and 31 for WGS data")
	canonical := fs.Bool("canonical", true, "use canonical (strand-independent) k-mers")
	minCount := fs.Int("min-count", 1, "drop k-mers occurring fewer than this many times in a sample (noise filter)")
	compute := cliutil.BindCompute(fs)
	transport := cliutil.BindTransport(fs)
	simPath := fs.String("similarity", "", "write the similarity matrix to this TSV file")
	distPath := fs.String("distance", "", "write the distance matrix to this TSV file")
	phylipPath := fs.String("phylip", "", "write the distance matrix in PHYLIP format to this file")
	newickPath := fs.String("newick", "", "write a neighbour-joining guide tree in Newick format to this file")
	pairsThreshold := fs.Float64("pairs-threshold", -1, "if ≥ 0, print sample pairs with similarity at or above this threshold beside the matrix outputs")
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
	if len(files) < 2 {
		return fmt.Errorf("need at least two FASTA files, got %d", len(files))
	}

	sampleOpts := genome.SampleOptions{
		ExtractorOptions: genome.ExtractorOptions{K: *k, Canonical: *canonical},
		MinCount:         *minCount,
	}
	samples := make([]genome.Sample, 0, len(files))
	for _, path := range files {
		records, err := genome.ReadFASTAFile(path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		s, err := genome.BuildSampleFromRecords(name, records, sampleOpts)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		samples = append(samples, s)
		fmt.Fprintf(out, "loaded %-30s %12d distinct %d-mers\n", name, s.Cardinality(), *k)
	}

	ds, err := genome.BuildDataset(samples)
	if err != nil {
		return err
	}

	// The matrix is assembled in memory only to be printed (no -top-k,
	// -threshold or TSV file) or for the -newick tree.
	pairs := compute.PairSink()
	printMatrix := pairs == nil && *simPath == "" && *distPath == ""
	if pairs != nil {
		if transport.TCP() {
			return fmt.Errorf("streaming mode (-top-k/-threshold) runs in-process; drop -transport tcp")
		}
		if *simPath != "" || *distPath != "" || *phylipPath != "" || *newickPath != "" {
			return fmt.Errorf("streaming mode (-top-k/-threshold) does not gather the matrices; drop -similarity/-distance/-phylip/-newick")
		}
		if *pairsThreshold >= 0 {
			return fmt.Errorf("-pairs-threshold filters the gathered matrix post hoc; in streaming mode use -threshold instead")
		}
	} else if *pairsThreshold >= 0 {
		pairs = tile.NewThreshold(*pairsThreshold)
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
	// stream into no sink and never touch the output paths.
	var sinks cliutil.Sinks
	defer func() { err = sinks.Finish(err) }()
	var collect *tile.Collect
	if transport.Root() {
		if pairs != nil {
			sinks.Add(pairs)
		}
		if err := sinks.AddFile(*simPath, output.FormatTSV, output.MatrixSimilarity); err != nil {
			return err
		}
		if err := sinks.AddFile(*distPath, output.FormatTSV, output.MatrixDistance); err != nil {
			return err
		}
		if err := sinks.AddFile(*phylipPath, output.FormatPHYLIP, output.MatrixDistance); err != nil {
			return err
		}
		if printMatrix || *newickPath != "" {
			collect = tile.NewCollect()
			sinks.Add(collect)
		}
	}
	res, err := e.Stream(context.Background(), ds, sinks.Sink())
	if err = sinks.Finish(err); err != nil {
		return err
	}

	if !transport.Root() {
		// Rank 0 writes the outputs for the whole job.
		fmt.Fprintf(out, "\nrank %d of %d: run complete in %.3fs\n",
			*transport.Rank, opts.Procs, res.Stats.TotalSeconds)
		cliutil.PrintComm(out, &res.Stats)
		return nil
	}
	fmt.Fprintf(out, "\nstreamed %d×%d Jaccard similarity matrix in %.3fs (%d batches, %d tiles, peak tile %d words)\n",
		res.N, res.N, res.Stats.TotalSeconds, res.Stats.Batches, res.Stats.TilesEmitted, res.Stats.PeakTileWords)
	if err := cliutil.Report(out, &res.Stats, *statsJSON, indexFlags, ds, opts); err != nil {
		return err
	}
	if *simPath != "" {
		fmt.Fprintf(out, "similarity matrix written to %s\n", *simPath)
	}
	if *distPath != "" {
		fmt.Fprintf(out, "distance matrix written to %s\n", *distPath)
	}
	if *phylipPath != "" {
		fmt.Fprintf(out, "PHYLIP distance matrix written to %s\n", *phylipPath)
	}
	if *newickPath != "" {
		tree, err := cluster.NeighborJoining(collect.D(), res.Names)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*newickPath, []byte(tree.Newick()+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "guide tree written to %s\n", *newickPath)
	}
	if pairs != nil {
		kept := compute.Pairs(pairs)
		if *pairsThreshold >= 0 {
			fmt.Fprintf(out, "\n%d sample pairs with similarity ≥ %.3f:\n", len(kept), *pairsThreshold)
		} else {
			fmt.Fprintf(out, "\n%d retained sample pairs:\n", len(kept))
		}
		if err := output.WritePairs(out, res.Names, kept); err != nil {
			return err
		}
	}
	if printMatrix {
		cliutil.PrintMatrix(out, res.Names, collect.S())
	}
	return nil
}
