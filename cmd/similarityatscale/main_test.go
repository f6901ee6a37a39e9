package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/core"
	"genomeatscale/internal/index"
	"genomeatscale/internal/output"
	"genomeatscale/internal/samplefile"
	"genomeatscale/internal/synth"
)

func writeSampleFile(t *testing.T, dir, name string, values []string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(values, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPrintsSimilarity(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2", "3", "# comment", ""})
	b := writeSampleFile(t, dir, "b.txt", []string{"2", "3", "4"})
	stdout, err := os.CreateTemp(dir, "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	if err := run([]string{"-procs", "2", a, b}, stdout); err != nil {
		t.Fatal(err)
	}
	stdout.Seek(0, 0)
	content, _ := os.ReadFile(stdout.Name())
	if !strings.Contains(string(content), "0.5000") {
		t.Errorf("expected J=0.5 in output:\n%s", content)
	}
}

func TestRunWritesTSVAndDistance(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2"})
	b := writeSampleFile(t, dir, "b.txt", []string{"1", "2"})
	outPath := filepath.Join(dir, "out.tsv")
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	if err := run([]string{"-distance", "-output", outPath, "-m", "100", a, b}, stdout); err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "0.000000") {
		t.Errorf("identical samples should have distance 0:\n%s", content)
	}
}

func TestRunStreamingThreshold(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2", "3"})
	b := writeSampleFile(t, dir, "b.txt", []string{"2", "3", "4"})
	c := writeSampleFile(t, dir, "c.txt", []string{"90", "91"})
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	if err := run([]string{"-threshold", "0.4", a, b, c}, stdout); err != nil {
		t.Fatal(err)
	}
	content, _ := os.ReadFile(stdout.Name())
	if !strings.Contains(string(content), "1 retained sample pairs") {
		t.Errorf("expected one retained pair, got:\n%s", content)
	}
	if !strings.Contains(string(content), "a\tb\t0.500000") {
		t.Errorf("expected the (a, b) pair line, got:\n%s", content)
	}
	// Streaming cannot be combined with -output.
	if err := run([]string{"-threshold", "0.4", "-output", dir + "/x.tsv", a, b}, stdout); err == nil {
		t.Error("streaming with -output should be rejected")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1"})
	bad := writeSampleFile(t, dir, "bad.txt", []string{"xyz"})
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	if err := run([]string{a}, stdout); err == nil {
		t.Error("one file should be rejected")
	}
	if err := run([]string{a, bad}, stdout); err == nil {
		t.Error("non-numeric values should be rejected")
	}
	if err := run([]string{a, filepath.Join(dir, "missing.txt")}, stdout); err == nil {
		t.Error("missing file should be rejected")
	}
	// Explicit m smaller than the data must be rejected by the dataset layer.
	big := writeSampleFile(t, dir, "big.txt", []string{"1000"})
	if err := run([]string{"-m", "10", a, big}, stdout); err == nil {
		t.Error("out-of-universe values should be rejected")
	}
}

func TestReadValues(t *testing.T) {
	dir := t.TempDir()
	path := writeSampleFile(t, dir, "v.txt", []string{"7", "  8  ", "#skip", "9"})
	got, err := readValues(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Errorf("readValues = %v", got)
	}
}

// TestRunTCPTransport runs the CLI as a 2-rank TCP job — both ranks
// in-process through run(), exactly the per-process entry bsprank spawns —
// and checks rank 0 prints the matrix while rank 1 only reports completion.
func TestRunTCPTransport(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2", "3"})
	b := writeSampleFile(t, dir, "b.txt", []string{"2", "3", "4"})

	ports := make([]string, 2)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().String()
		ln.Close()
	}
	peers := strings.Join(ports, ",")

	outs := make([]*os.File, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		outs[r], _ = os.CreateTemp(dir, "stdout")
		defer outs[r].Close()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = run([]string{
				"-transport", "tcp", "-rank", fmt.Sprint(r), "-peers", peers,
				"-batches", "2", "-workers", "1", a, b,
			}, outs[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	root, _ := os.ReadFile(outs[0].Name())
	if !strings.Contains(string(root), "0.5000") {
		t.Errorf("rank 0 output missing J=0.5 matrix:\n%s", root)
	}
	if !strings.Contains(string(root), "transport: ") {
		t.Errorf("rank 0 output missing transport stats line:\n%s", root)
	}
	other, _ := os.ReadFile(outs[1].Name())
	if !strings.Contains(string(other), "rank 1 of 2: run complete") {
		t.Errorf("rank 1 output missing completion line:\n%s", other)
	}
	if strings.Contains(string(other), "0.5000") {
		t.Errorf("rank 1 printed a matrix it should not hold:\n%s", other)
	}
}

func TestRunTransportFlagErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1"})
	b := writeSampleFile(t, dir, "b.txt", []string{"2"})
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	cases := [][]string{
		{"-transport", "tcp", a, b},                                          // no peers
		{"-transport", "tcp", "-peers", "h:1", a, b},                         // one peer
		{"-transport", "tcp", "-rank", "5", "-peers", "h:1,h:2", a, b},       // rank out of range
		{"-rank", "1", a, b},                                                 // rank without tcp
		{"-peers", "h:1,h:2", a, b},                                          // peers without tcp
		{"-transport", "carrier-pigeon", a, b},                               // unknown backend
		{"-transport", "tcp", "-peers", "h:1,h:2", "-threshold", ".5", a, b}, // streaming over tcp
	}
	for _, args := range cases {
		if err := run(args, stdout); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunIndexOutAndStatsJSON checks the index/stats artifacts: -index-out
// must emit a file that index.Open can serve (with the run's own similarity
// for a sample-vs-corpus query), and -stats-json must emit JSON that
// cliutil.ReadStatsJSON round-trips.
func TestRunIndexOutAndStatsJSON(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2", "3"})
	b := writeSampleFile(t, dir, "b.txt", []string{"2", "3", "4"})
	c := writeSampleFile(t, dir, "c.txt", []string{"90", "91"})
	idxPath := filepath.Join(dir, "corpus.idx")
	statsPath := filepath.Join(dir, "stats.json")
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()

	args := []string{"-index-out", idxPath, "-index-sketch-k", "4", "-stats-json", statsPath, a, b, c}
	if err := run(args, stdout); err != nil {
		t.Fatal(err)
	}
	content, _ := os.ReadFile(stdout.Name())
	if !strings.Contains(string(content), "index written to") {
		t.Errorf("missing index confirmation line:\n%s", content)
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
	if stats.TotalSeconds <= 0 || stats.Batches < 1 {
		t.Errorf("implausible stats: %+v", stats)
	}

	corpus, err := index.Open(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	if corpus.Samples() != 3 || corpus.SketchK() != 4 {
		t.Fatalf("index has %d samples, sketch k=%d", corpus.Samples(), corpus.SketchK())
	}
	// Query sample a's values against the index: the best non-self
	// neighbour must be b at the J=0.5 the batch run printed.
	neighbors, err := corpus.Query(context.Background(), []uint64{1, 2, 3}, index.QueryOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(neighbors) != 2 || neighbors[0].Name != "a" || neighbors[0].Similarity != 1 {
		t.Fatalf("self neighbour wrong: %+v", neighbors)
	}
	if n := neighbors[1]; n.Name != "b" || n.Similarity != 0.5 {
		t.Fatalf("expected (b, 0.5) neighbour, got %+v", n)
	}

	// The same run in streaming mode must emit the same artifacts.
	idx2 := filepath.Join(dir, "stream.idx")
	if err := run([]string{"-threshold", "0.4", "-index-out", idx2, "-stats-json", "-", a, b, c}, stdout); err != nil {
		t.Fatal(err)
	}
	corpus2, err := index.Open(idx2)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus2.Close()
	if corpus2.Samples() != 3 {
		t.Fatalf("streaming index has %d samples", corpus2.Samples())
	}
}

// TestRunDirMatchesFiles runs the out-of-core -dir path with the flag set
// of a prescreened, thresholded run that writes an index, and checks that
// the retained pairs and the index's neighbours equal those of the same
// run over the same samples given as positional files.
func TestRunDirMatchesFiles(t *testing.T) {
	const m = 4096
	rng := rand.New(rand.NewSource(5))
	smpDir, txtDir := t.TempDir(), t.TempDir()
	var files []string
	var samples [][]uint64
	for c := 0; c < 3; c++ {
		base := rng.Perm(m)[:40]
		for s := 0; s < 3; s++ {
			set := map[uint64]bool{}
			for _, v := range base {
				set[uint64(v)] = true
			}
			for k := 0; k < 12; k++ {
				set[uint64(rng.Intn(m))] = true
			}
			var vals []uint64
			for v := range set {
				vals = append(vals, v)
			}
			slices.Sort(vals)
			samples = append(samples, vals)
			name := fmt.Sprintf("s-%d%d", c, s)
			if err := samplefile.WriteBinary(filepath.Join(smpDir, name+".smp"), vals); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(txtDir, name+".txt")
			if err := samplefile.WriteText(path, vals); err != nil {
				t.Fatal(err)
			}
			files = append(files, path)
		}
	}
	common := []string{"-m", fmt.Sprint(m), "-batches", "2", "-threshold", "0.5", "-sketch-k", "64", "-index-sketch-k", "8"}
	solve := func(name string, args ...string) (pairs string, corpus *index.Corpus) {
		t.Helper()
		dir := t.TempDir()
		idx := filepath.Join(dir, "corpus.idx")
		stdout, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		defer stdout.Close()
		if err := run(append(append(append([]string{}, common...), "-index-out", idx), args...), stdout); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		content, _ := os.ReadFile(stdout.Name())
		_, pairs, ok := strings.Cut(string(content), "retained sample pairs:")
		if !ok || !strings.Contains(pairs, "\t") {
			t.Fatalf("%s run printed no pairs:\n%s", name, content)
		}
		corpus, err = index.Open(idx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { corpus.Close() })
		return pairs, corpus
	}
	wantPairs, wantIdx := solve("files", files...)
	gotPairs, gotIdx := solve("dir", "-dir", smpDir, "-pattern", "*.smp", "-prefetch", "2")
	if gotPairs != wantPairs {
		t.Errorf("-dir pairs differ:\n%s\nwant:\n%s", gotPairs, wantPairs)
	}
	for i, vals := range samples {
		q := index.QueryOptions{TopK: len(samples)}
		want, err := wantIdx.Query(context.Background(), vals, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gotIdx.Query(context.Background(), vals, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("sample %d: -dir index neighbours %+v, want %+v", i, got, want)
		}
	}
}

// TestRunProfileFlags runs a solve with -cpuprofile and -memprofile and
// checks that each file is a non-empty gzip stream, the pprof container.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2", "3"})
	b := writeSampleFile(t, dir, "b.txt", []string{"2", "3", "4"})
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stdout, _ := os.CreateTemp(dir, "stdout")
	defer stdout.Close()
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, a, b}, stdout); err != nil {
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

// TestRunGridMatchesLocal: the TSV a processor-grid run writes — in
// process at several rank counts, replication factors, batch counts and
// mask widths, and as a 4-rank TCP job — equals the local run's byte for
// byte, for similarities and for distances. The samples form clusters
// around shared cores plus private values, so the batches hold both rows
// that two samples share and rows that only one sample has.
func TestRunGridMatchesLocal(t *testing.T) {
	const m, clusters, perCluster = 4096, 4, 6
	rng := rand.New(rand.NewSource(9))
	dir := t.TempDir()
	holders := map[uint64]int{}
	var files []string
	for c := 0; c < clusters; c++ {
		core := rng.Perm(m)[:60]
		for s := 0; s < perCluster; s++ {
			set := map[uint64]bool{}
			for _, v := range core {
				if rng.Intn(4) > 0 {
					set[uint64(v)] = true
				}
			}
			for k := 0; k < 20; k++ {
				set[uint64(rng.Intn(m))] = true
			}
			vals := slices.Sorted(maps.Keys(set))
			for _, v := range vals {
				holders[v]++
			}
			path := filepath.Join(dir, fmt.Sprintf("s-%d-%d.txt", c, s))
			if err := samplefile.WriteText(path, vals); err != nil {
				t.Fatal(err)
			}
			files = append(files, path)
		}
	}
	kinds := map[bool]int{}
	for _, k := range holders {
		kinds[k >= 2]++
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("dataset lacks shared or private rows: %v", kinds)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()

	// solve runs one job and returns the TSV it wrote. tcpRanks > 0 runs it
	// as a TCP job of that many ranks, each a goroutine.
	solve := func(tcpRanks int, flags ...string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "out.tsv")
		args := append([]string{"-m", fmt.Sprint(m), "-output", path}, flags...)
		if tcpRanks == 0 {
			if err := run(append(args, files...), null); err != nil {
				t.Fatalf("%v: %v", flags, err)
			}
		} else {
			peers := make([]string, tcpRanks)
			for r := range peers {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				peers[r] = ln.Addr().String()
				ln.Close()
			}
			errs := make([]error, tcpRanks)
			var wg sync.WaitGroup
			for r := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rankArgs := append(slices.Clone(args), "-transport", "tcp", "-rank", fmt.Sprint(r), "-peers", strings.Join(peers, ","))
					errs[r] = run(append(rankArgs, files...), null)
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("%d-rank tcp %v: %v", tcpRanks, flags, err)
			}
		}
		content, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(content)
	}
	grids := []struct {
		tcpRanks int
		flags    []string
	}{
		{0, []string{"-procs", "4"}},
		{0, []string{"-procs", "12", "-replication", "3", "-mask-bits", "32", "-batches", "3"}},
		{0, []string{"-procs", "7", "-replication", "1"}},
		{4, nil},
	}
	for _, measure := range [][]string{nil, {"-distance"}} {
		want := solve(0, measure...)
		if !strings.Contains(want, "\t") || !strings.Contains(want, "s-3-5") {
			t.Fatalf("local %v run wrote no matrix:\n%s", measure, want)
		}
		for _, g := range grids {
			if got := solve(g.tcpRanks, append(slices.Clone(g.flags), measure...)...); got != want {
				t.Errorf("%v %v (tcp ranks %d): TSV differs from the local run's", g.flags, measure, g.tcpRanks)
			}
		}
	}
}

// tcpJob runs one TCP job of len(rankArgs) ranks in-process, each a
// goroutine calling run with its own arguments plus the transport flags,
// and returns the ranks' errors joined.
func tcpJob(t *testing.T, out *os.File, rankArgs ...[]string) error {
	t.Helper()
	peers := make([]string, len(rankArgs))
	for r := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[r] = ln.Addr().String()
		ln.Close()
	}
	errs := make([]error, len(rankArgs))
	var wg sync.WaitGroup
	for r, args := range rankArgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = run(append([]string{"-transport", "tcp", "-rank", fmt.Sprint(r), "-peers", strings.Join(peers, ",")}, args...), out)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestRunMatchesOracle: the TSV -output streams, with and without
// -distance, on the local target, two in-process grids and a 4-rank TCP
// job, equals output.WriteTSV of the matrix Engine.Similarity gathers on
// the same seeded synthetic set.
func TestRunMatchesOracle(t *testing.T) {
	const m = 20000
	ds, err := synth.Generate(synth.Config{Samples: 21, Attributes: m, Density: 0.01, ColumnVariability: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var names, files []string
	var samples [][]uint64
	for i := 0; i < ds.NumSamples(); i++ {
		name := fmt.Sprintf("sample-%03d", i)
		path := filepath.Join(dir, name+".txt")
		if err := samplefile.WriteText(path, ds.Sample(i)); err != nil {
			t.Fatal(err)
		}
		names, files, samples = append(names, name), append(files, path), append(samples, ds.Sample(i))
	}
	e, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gathered, err := e.Similarity(context.Background(), core.MustInMemoryDataset(names, samples, m))
	if err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()

	for _, measure := range []string{"", "-distance"} {
		matrix := gathered.S
		if measure != "" {
			matrix = gathered.D
		}
		var want bytes.Buffer
		if err := output.WriteTSV(&want, gathered.Names, matrix); err != nil {
			t.Fatal(err)
		}
		for _, target := range [][]string{nil, {"-procs", "4"}, {"-procs", "7", "-replication", "1"}, {"tcp", "4"}} {
			path := filepath.Join(t.TempDir(), "out.tsv")
			args := []string{"-m", fmt.Sprint(m), "-batches", "3", "-output", path}
			if measure != "" {
				args = append(args, measure)
			}
			if len(target) == 2 && target[0] == "tcp" {
				rankArgs := make([][]string, 4)
				for r := range rankArgs {
					rankArgs[r] = append(slices.Clone(args), files...)
				}
				err = tcpJob(t, null, rankArgs...)
			} else {
				err = run(append(append(args, target...), files...), null)
			}
			if err != nil {
				t.Fatalf("%v %q: %v", target, measure, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%v %q: -output differs from WriteTSV of the gathered matrix", target, measure)
			}
		}
	}
}

// TestRunOutputFailureLeavesNoFile: an -output path that cannot be created
// fails the command before the run reads a sample, and a run that fails
// after its file was opened (one corrupt .smp under -dir) removes it.
func TestRunOutputFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	for i, vals := range [][]uint64{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}} {
		if err := samplefile.WriteBinary(filepath.Join(dir, fmt.Sprintf("s%d.smp", i)), vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "s3.smp"), []byte("not a sample file"), 0o644); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	common := []string{"-m", "100", "-dir", dir, "-pattern", "*.smp", "-prefetch", "0"}

	// The corrupt sample would fail the run; the -output error must come
	// first.
	missing := filepath.Join(t.TempDir(), "missing-dir", "out.tsv")
	err = run(append(slices.Clone(common), "-output", missing), null)
	var pathErr *fs.PathError
	if !errors.As(err, &pathErr) || !strings.HasPrefix(pathErr.Path, missing) {
		t.Fatalf("-output into a missing directory: got %v, want the create error for %s", err, missing)
	}

	outDir := t.TempDir()
	if err := run(append(slices.Clone(common), "-output", filepath.Join(outDir, "out.tsv")), null); err == nil || !strings.Contains(err.Error(), "s3") {
		t.Fatalf("run over a corrupt sample: got %v, want an error naming s3", err)
	}
	if entries, err := os.ReadDir(outDir); err != nil || len(entries) != 0 {
		t.Errorf("failed run left %v behind (err %v)", entries, err)
	}
}

// TestRunTCPOnlyRootWrites gives each rank of a 2-rank TCP job its own
// -output path: rank 0 writes the matrix, rank 1 never creates a file.
func TestRunTCPOnlyRootWrites(t *testing.T) {
	dir := t.TempDir()
	a := writeSampleFile(t, dir, "a.txt", []string{"1", "2", "3"})
	b := writeSampleFile(t, dir, "b.txt", []string{"2", "3", "4"})
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	paths := []string{filepath.Join(dir, "rank0.tsv"), filepath.Join(dir, "rank1.tsv")}
	if err := tcpJob(t, null,
		[]string{"-output", paths[0], a, b},
		[]string{"-output", paths[1], a, b},
	); err != nil {
		t.Fatal(err)
	}
	if content, err := os.ReadFile(paths[0]); err != nil || !strings.Contains(string(content), "a\t1.000000\t0.500000") {
		t.Errorf("rank 0's file: %q, %v", content, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 3 {
		t.Errorf("the job left %v in its directory (err %v), want a.txt, b.txt and rank 0's file", entries, err)
	}
}
