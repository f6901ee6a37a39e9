package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/core"
	"genomeatscale/internal/genome"
	"genomeatscale/internal/index"
	"genomeatscale/internal/output"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// writeTestFASTA writes n related FASTA files into dir and returns their paths.
func writeTestFASTA(t *testing.T, dir string, n int) []string {
	t.Helper()
	records, err := genome.GenerateFamily(genome.FamilyConfig{
		AncestorLength: 5000,
		Descendants:    n - 1,
		Model:          genome.MutationModel{SubstitutionRate: 0.02},
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, rec := range records {
		path := filepath.Join(dir, rec.ID+".fasta")
		if err := genome.WriteFASTAFile(path, []genome.Record{rec}, 70); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 3)
	simOut := filepath.Join(dir, "sim.tsv")
	phylipOut := filepath.Join(dir, "dist.phy")
	newickOut := filepath.Join(dir, "tree.nwk")
	stdout, err := os.CreateTemp(dir, "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()

	args := append([]string{
		"-k", "13", "-procs", "2", "-batches", "2",
		"-similarity", simOut, "-phylip", phylipOut, "-newick", newickOut,
		"-pairs-threshold", "0.0",
	}, paths...)
	if err := run(args, stdout); err != nil {
		t.Fatal(err)
	}

	sim, err := os.ReadFile(simOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sim), "ancestor") {
		t.Error("similarity TSV missing sample names")
	}
	phy, err := os.ReadFile(phylipOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(phy)), "3") {
		t.Error("PHYLIP output should start with the sample count")
	}
	nwk, err := os.ReadFile(newickOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(nwk)), ";") {
		t.Error("Newick output should end with a semicolon")
	}
}

func TestRunRequiresTwoFiles(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 1)
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	if err := run(paths, stdout); err == nil {
		t.Error("a single input file should be rejected")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.fasta")
	os.WriteFile(bad, []byte("not fasta at all\n"), 0o644)
	good := writeTestFASTA(t, dir, 1)
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	if err := run([]string{good[0], bad}, stdout); err == nil {
		t.Error("malformed FASTA should be rejected")
	}
	if err := run([]string{"-k", "99", good[0], good[0]}, stdout); err == nil {
		t.Error("invalid k should be rejected")
	}
}

func TestRunStreamingTopK(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 4)
	stdout, err := os.CreateTemp(dir, "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	args := append([]string{"-k", "13", "-procs", "2", "-top-k", "2"}, paths...)
	if err := run(args, stdout); err != nil {
		t.Fatal(err)
	}
	content, _ := os.ReadFile(stdout.Name())
	if !strings.Contains(string(content), "2 retained sample pairs") {
		t.Errorf("expected 2 retained pairs in output:\n%s", content)
	}
	if !strings.Contains(string(content), "sample_a\tsample_b\tjaccard") {
		t.Errorf("expected pair TSV header in output:\n%s", content)
	}
}

func TestRunStreamingRejectsMatrixOutputs(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 2)
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	args := append([]string{"-top-k", "1", "-similarity", filepath.Join(dir, "s.tsv")}, paths...)
	if err := run(args, stdout); err == nil {
		t.Error("streaming mode combined with matrix outputs should be rejected")
	}
}

// TestRunIndexOutAndStatsJSON checks the artifacts the gathered run emits:
// -index-out writes a k-mer index that index.Open can query (self-query
// returns J=1), -stats-json writes RunStats that ReadStatsJSON parses.
func TestRunIndexOutAndStatsJSON(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 3)
	idxPath := filepath.Join(dir, "corpus.idx")
	statsPath := filepath.Join(dir, "stats.json")
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()

	args := append([]string{"-k", "13", "-batches", "2", "-index-out", idxPath, "-stats-json", statsPath}, paths...)
	if err := run(args, stdout); err != nil {
		t.Fatal(err)
	}

	sf, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	stats, err := cliutil.ReadStatsJSON(sf)
	if err != nil {
		t.Fatalf("ReadStatsJSON: %v", err)
	}
	if stats.Batches != 2 {
		t.Errorf("stats.Batches = %d, want 2", stats.Batches)
	}

	corpus, err := index.Open(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	if corpus.Samples() != 3 {
		t.Fatalf("index has %d samples, want 3", corpus.Samples())
	}
	// Re-extract the ancestor's k-mer set and query it: the top neighbour
	// must be the ancestor itself at similarity 1.
	records, err := genome.ReadFASTAFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := genome.BuildSampleFromRecords("q", records, genome.SampleOptions{
		ExtractorOptions: genome.ExtractorOptions{K: 13, Canonical: true},
		MinCount:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	neighbors, err := corpus.Query(context.Background(), s.Kmers, index.QueryOptions{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(neighbors) != 1 || neighbors[0].Similarity != 1 {
		t.Fatalf("self query neighbours = %+v, want one exact match", neighbors)
	}
}

// TestRunProfileFlags runs a solve with -cpuprofile and -memprofile and
// checks that each file is a non-empty gzip stream, the pprof container.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 3)
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stdout, err := os.CreateTemp(dir, "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	if err := run(append([]string{"-k", "13", "-cpuprofile", cpu, "-memprofile", mem}, paths...), stdout); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: not gzip: %v", path, err)
		}
		if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
			t.Fatalf("%s: %d decompressed bytes, err %v", path, len(body), err)
		}
	}
}

// writePHYLIP is the PHYLIP oracle (the one internal/output's tests hold):
// the gathered distance matrix written with fmt's verbs.
func writePHYLIP(names []string, d *sparse.Dense[float64]) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5d\n", len(names))
	for i, name := range names {
		name = strings.NewReplacer(" ", "_", "\t", "_", "\n", "_").Replace(name)
		fmt.Fprintf(&b, "%-10s", name[:min(len(name), 10)])
		for j := range names {
			fmt.Fprintf(&b, " %9.6f", d.At(i, j))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestRunMatchesOracle: the -similarity, -distance and -phylip files a run
// streams, locally and on a 4-rank grid, equal output.WriteTSV and the
// PHYLIP oracle of the matrices Engine.Similarity gathers for the same
// k-mer sets, and -pairs-threshold 0 prints every pair of the gathered
// S in tile.SortPairs order.
func TestRunMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	paths := writeTestFASTA(t, dir, 6)
	samples := make([]genome.Sample, len(paths))
	for i, path := range paths {
		records, err := genome.ReadFASTAFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		samples[i], err = genome.BuildSampleFromRecords(name, records, genome.SampleOptions{
			ExtractorOptions: genome.ExtractorOptions{K: 13, Canonical: true},
			MinCount:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, err := genome.BuildDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gathered, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	var wantSim, wantDist bytes.Buffer
	if err := output.WriteTSV(&wantSim, gathered.Names, gathered.S); err != nil {
		t.Fatal(err)
	}
	if err := output.WriteTSV(&wantDist, gathered.Names, gathered.D); err != nil {
		t.Fatal(err)
	}
	var all []tile.Pair
	for i := range gathered.N {
		for j := i + 1; j < gathered.N; j++ {
			all = append(all, tile.Pair{I: i, J: j, Similarity: gathered.S.At(i, j)})
		}
	}
	tile.SortPairs(all)
	var wantPairs strings.Builder
	fmt.Fprintf(&wantPairs, "\n%d sample pairs with similarity ≥ 0.000:\nsample_a\tsample_b\tjaccard\n", len(all))
	for _, p := range all {
		fmt.Fprintf(&wantPairs, "%s\t%s\t%.6f\n", gathered.Names[p.I], gathered.Names[p.J], p.Similarity)
	}

	for _, target := range [][]string{{"-procs", "1"}, {"-procs", "4", "-batches", "3"}} {
		out := t.TempDir()
		sim, dist, phy := filepath.Join(out, "s.tsv"), filepath.Join(out, "d.tsv"), filepath.Join(out, "d.phy")
		stdout, err := os.Create(filepath.Join(out, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		defer stdout.Close()
		args := append(append([]string{"-k", "13", "-similarity", sim, "-distance", dist, "-phylip", phy, "-pairs-threshold", "0"}, target...), paths...)
		if err := run(args, stdout); err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		for _, file := range []struct{ path, want string }{
			{sim, wantSim.String()}, {dist, wantDist.String()}, {phy, writePHYLIP(gathered.Names, gathered.D)},
		} {
			if got, err := os.ReadFile(file.path); err != nil || string(got) != file.want {
				t.Errorf("%v: %s differs from the oracle (err %v):\n%s\nwant:\n%s", target, filepath.Base(file.path), err, got, file.want)
			}
		}
		content, err := os.ReadFile(stdout.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(string(content), wantPairs.String()) {
			t.Errorf("%v: stdout does not end with the brute-force pair list:\n%s\nwant suffix:\n%s", target, content, wantPairs.String())
		}
	}
}
