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
// With -top-k or -threshold the run streams: only the requested sample
// pairs are retained (in memory bounded by the reduction, not by n²) and
// printed as a pair list instead of the full matrices.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/cluster"
	"genomeatscale/internal/core"
	"genomeatscale/internal/genome"
	"genomeatscale/internal/output"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genomeatscale:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
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
	pairsThreshold := fs.Float64("pairs-threshold", -1, "if ≥ 0, print sample pairs with similarity at or above this threshold (post-hoc, from the gathered matrix)")
	indexFlags := cliutil.BindIndex(fs)
	statsJSON := cliutil.BindStatsJSON(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
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

	if compute.Streaming() {
		if transport.TCP() {
			return fmt.Errorf("streaming mode (-top-k/-threshold) runs in-process; drop -transport tcp")
		}
		if *simPath != "" || *distPath != "" || *phylipPath != "" || *newickPath != "" {
			return fmt.Errorf("streaming mode (-top-k/-threshold) does not gather the matrices; drop -similarity/-distance/-phylip/-newick")
		}
		if *pairsThreshold >= 0 {
			return fmt.Errorf("-pairs-threshold filters the gathered matrix post hoc; in streaming mode use -threshold instead")
		}
		res, pairs, err := compute.StreamPairs(context.Background(), ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nstreamed %d×%d Jaccard similarity run in %.3fs (%d tiles, peak tile %d words)\n",
			res.N, res.N, res.Stats.TotalSeconds, res.Stats.TilesEmitted, res.Stats.PeakTileWords)
		cliutil.PrintTuning(out, res.Stats.Tuning)
		cliutil.PrintSketch(out, res.Stats.Sketch)
		if err := cliutil.WriteStatsJSONFlag(out, *statsJSON, &res.Stats); err != nil {
			return err
		}
		if err := indexFlags.Write(out, ds, compute.Options()); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%d retained sample pairs:\n", len(pairs))
		return output.WritePairs(out, pairs)
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
	res, err := e.Similarity(context.Background(), ds)
	if err != nil {
		return err
	}

	if !transport.Root() {
		// Non-root TCP ranks hold no gathered matrix — rank 0 writes the
		// outputs for the whole job.
		fmt.Fprintf(out, "\nrank %d of %d: run complete in %.3fs\n",
			*transport.Rank, opts.Procs, res.Stats.TotalSeconds)
		cliutil.PrintComm(out, &res.Stats)
		return nil
	}

	fmt.Fprintf(out, "\ncomputed %d×%d Jaccard similarity matrix in %.3fs (%d batches)\n",
		res.N, res.N, res.Stats.TotalSeconds, res.Stats.Batches)
	cliutil.PrintTuning(out, res.Stats.Tuning)
	cliutil.PrintSketch(out, res.Stats.Sketch)
	cliutil.PrintComm(out, &res.Stats)
	if err := cliutil.WriteStatsJSONFlag(out, *statsJSON, &res.Stats); err != nil {
		return err
	}
	if err := indexFlags.Write(out, ds, opts); err != nil {
		return err
	}

	if *simPath != "" {
		if err := cliutil.WriteMatrixTSVFile(*simPath, res.Names, res.S); err != nil {
			return err
		}
		fmt.Fprintf(out, "similarity matrix written to %s\n", *simPath)
	}
	if *distPath != "" {
		if err := cliutil.WriteMatrixTSVFile(*distPath, res.Names, res.D); err != nil {
			return err
		}
		fmt.Fprintf(out, "distance matrix written to %s\n", *distPath)
	}
	if *phylipPath != "" {
		if err := output.WritePHYLIPFile(*phylipPath, res.Names, res.D); err != nil {
			return err
		}
		fmt.Fprintf(out, "PHYLIP distance matrix written to %s\n", *phylipPath)
	}
	if *newickPath != "" {
		tree, err := cluster.NeighborJoining(res.D, res.Names)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*newickPath, []byte(tree.Newick()+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "guide tree written to %s\n", *newickPath)
	}
	if *pairsThreshold >= 0 {
		pairs, err := output.TopPairs(res.Names, res.S, *pairsThreshold)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%d sample pairs with similarity ≥ %.3f:\n", len(pairs), *pairsThreshold)
		if err := output.WritePairs(out, pairs); err != nil {
			return err
		}
	}
	if *simPath == "" && *distPath == "" {
		cliutil.PrintMatrix(out, res.Names, res.S)
	}
	return nil
}
