package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"genomeatscale"
)

// printedTolerance is half a unit of the last printed digit (the CLI
// prints similarities with six decimals) plus float slack.
const printedTolerance = 0.5e-6 + 1e-9

// tally counts every solve, query and append the run attempted and every
// one that failed or answered wrongly; the first few reasons are kept.
type tally struct {
	mu        sync.Mutex
	Attempted int
	Failed    int
	Reasons   []string
}

// op records one attempted operation and, when err is non-nil, its failure.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Attempted++
	if err != nil {
		t.Failed++
		if len(t.Reasons) < 8 {
			t.Reasons = append(t.Reasons, err.Error())
		}
	}
}

// batchOracle is what the harness knows about a batch dataset's answer
// before any solve runs: the planted pairs and seeded background pairs,
// each with its exact Jaccard similarity.
type batchOracle struct {
	ds     *dataset
	byName map[string]int
	known  []pair // planted first, then the random background pairs
}

// randomOraclePairs is the number of seeded background pairs checked
// beside the planted ones.
const randomOraclePairs = 200

func newBatchOracle(ds *dataset, random []pair) *batchOracle {
	o := &batchOracle{ds: ds, byName: make(map[string]int, ds.N)}
	for i, name := range ds.names {
		o.byName[name] = i
	}
	seen := make(map[[2]int]bool)
	for _, kp := range append(append([]pair(nil), ds.planted...), random...) {
		if key := [2]int{kp.I, kp.J}; !seen[key] {
			seen[key] = true
			o.known = append(o.known, kp)
		}
	}
	return o
}

type listedPair struct {
	I, J    int
	Printed float64
}

// parsePairList extracts the pair list a streaming solve prints: the lines
// after the "sample_a sample_b jaccard" header.
func (o *batchOracle) parsePairList(stdout []byte) ([]listedPair, error) {
	_, body, found := bytes.Cut(stdout, []byte("sample_a\tsample_b\tjaccard\n"))
	if !found {
		return nil, fmt.Errorf("no pair list in the output")
	}
	var out []listedPair
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("malformed pair line %q", sc.Text())
		}
		i, okI := o.byName[f[0]]
		j, okJ := o.byName[f[1]]
		v, err := strconv.ParseFloat(f[2], 64)
		if !okI || !okJ || err != nil {
			return nil, fmt.Errorf("malformed pair line %q", sc.Text())
		}
		if i > j {
			i, j = j, i
		}
		out = append(out, listedPair{I: i, J: j, Printed: v})
	}
	return out, sc.Err()
}

// checkPairList verifies the pair list of a -top-k or -threshold solve:
// every listed value equals the exact Jaccard to printed precision, the
// list is in descending order and of the expected length, every known pair
// that belongs in the list is there with its oracle value, and none that
// does not belong is.
func (o *batchOracle) checkPairList(w workload, stdout []byte) error {
	listed, err := o.parsePairList(stdout)
	if err != nil {
		return err
	}
	at := make(map[[2]int]float64, len(listed))
	for k, lp := range listed {
		exact := genomeatscale.ExactJaccard(o.ds.samples[lp.I], o.ds.samples[lp.J])
		if math.Abs(lp.Printed-exact) > printedTolerance {
			return fmt.Errorf("pair (%d,%d) printed %.6f, exact %.9f", lp.I, lp.J, lp.Printed, exact)
		}
		if k > 0 && lp.Printed > listed[k-1].Printed {
			return fmt.Errorf("pair list not in descending order at line %d", k)
		}
		at[[2]int{lp.I, lp.J}] = lp.Printed
	}
	// cutoff is the similarity a pair needs to be listed.
	cutoff := queryThreshold
	if w.Output == pairsTopK {
		want := min(w.TopK, o.ds.N*(o.ds.N-1)/2)
		if len(listed) != want {
			return fmt.Errorf("top-k list has %d pairs, want %d", len(listed), want)
		}
		cutoff = listed[len(listed)-1].Printed
	}
	belong := 0
	for _, kp := range o.known {
		printed, isListed := at[[2]int{kp.I, kp.J}]
		switch {
		case isListed && math.Abs(printed-kp.Jaccard) > printedTolerance:
			return fmt.Errorf("pair (%d,%d) listed as %.6f, oracle %.9f", kp.I, kp.J, printed, kp.Jaccard)
		case !isListed && kp.Jaccard > cutoff+printedTolerance:
			return fmt.Errorf("pair (%d,%d) with oracle similarity %.6f missing from the list", kp.I, kp.J, kp.Jaccard)
		case isListed && kp.Jaccard < cutoff-printedTolerance:
			return fmt.Errorf("pair (%d,%d) with oracle similarity %.6f listed below the cutoff %.6f", kp.I, kp.J, kp.Jaccard, cutoff)
		}
		if kp.Jaccard >= cutoff {
			belong++
		}
	}
	// Background pairs of these shapes stay far below 0.5, so a thresholded
	// list holds exactly the known pairs at or above the threshold.
	if w.Output == pairsThreshold && len(listed) != belong {
		return fmt.Errorf("threshold list has %d pairs, oracle has %d at or above %.2f", len(listed), belong, cutoff)
	}
	return nil
}

// checkTSV verifies the gathered similarity matrix a solve wrote: its
// shape and labels, a unit diagonal, and both cells of every known pair to
// printed precision.
func (o *batchOracle) checkTSV(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	n := o.ds.N
	if len(lines) != n+1 {
		return fmt.Errorf("TSV has %d lines, want %d", len(lines), n+1)
	}
	if want := "sample\t" + strings.Join(o.ds.names, "\t"); lines[0] != want {
		return fmt.Errorf("TSV header does not list the %d samples in order", n)
	}
	rows := make([][]string, n)
	for i := range rows {
		f := strings.Split(lines[i+1], "\t")
		if len(f) != n+1 || f[0] != o.ds.names[i] {
			return fmt.Errorf("TSV row %d malformed", i)
		}
		rows[i] = f[1:]
		if len(o.ds.samples[i]) > 0 && rows[i][i] != "1.000000" {
			return fmt.Errorf("TSV diagonal (%d,%d) is %s", i, i, rows[i][i])
		}
	}
	for _, kp := range o.known {
		for _, cell := range []string{rows[kp.I][kp.J], rows[kp.J][kp.I]} {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || math.Abs(v-kp.Jaccard) > printedTolerance {
				return fmt.Errorf("TSV cell (%d,%d) is %s, oracle %.9f", kp.I, kp.J, cell, kp.Jaccard)
			}
		}
	}
	return nil
}

// neighbor mirrors index.Neighbor as served in a reply.
type neighbor struct {
	Sample       int     `json:"sample"`
	Name         string  `json:"name"`
	Intersection int64   `json:"intersection"`
	Similarity   float64 `json:"similarity"`
}

// servedTolerance bounds the difference between a served similarity and
// the oracle's: both are one float64 division of the same integers.
const servedTolerance = 1e-12

// serveOracle checks served replies against the corpus, the appended
// samples and the per-query expectations computed at set-up.
type serveOracle struct {
	corpus  *dataset
	appends []appendSample
	topK    int
	// expectSource[k] is the exact similarity of query k to its source
	// sample; expectFull[k] is query k's exact neighbor list over the base
	// corpus (every fullOracleStride-th query only).
	expectSource []float64
	expectFull   map[int][]neighbor
}

// fullOracleStride selects the queries whose whole neighbor list is
// computed by brute force at set-up.
const fullOracleStride = 20

func (o *serveOracle) values(sample int) ([]uint64, error) {
	switch {
	case sample < 0 || sample >= o.corpus.N+len(o.appends):
		return nil, fmt.Errorf("neighbor names sample %d outside the corpus", sample)
	case sample < o.corpus.N:
		return o.corpus.samples[sample], nil
	}
	return o.appends[sample-o.corpus.N].Values, nil
}

// bruteForce returns the exact reply to q over the base corpus, in the
// service's order: descending similarity, ties by ascending sample.
func (o *serveOracle) bruteForce(q query) []neighbor {
	var out []neighbor
	for i, s := range o.corpus.samples {
		sim := genomeatscale.ExactJaccard(q.Values, s)
		if sim < q.Threshold {
			continue
		}
		out = append(out, neighbor{Sample: i, Name: o.corpus.names[i], Similarity: sim})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Similarity > out[b].Similarity })
	if len(out) > o.topK {
		out = out[:o.topK]
	}
	return out
}

func newServeOracle(corpus *dataset, queries []query, appends []appendSample, topK int) *serveOracle {
	o := &serveOracle{corpus: corpus, appends: appends, topK: topK,
		expectSource: make([]float64, len(queries)), expectFull: make(map[int][]neighbor)}
	for k, q := range queries {
		o.expectSource[k] = genomeatscale.ExactJaccard(q.Values, corpus.samples[q.Source])
		if k%fullOracleStride == 0 {
			o.expectFull[k] = o.bruteForce(q)
		}
	}
	return o
}

// checkReply verifies the neighbors served for query k. static says the
// corpus held only its base samples when the query ran, so the brute-force
// neighbor list applies where one was computed.
func (o *serveOracle) checkReply(k int, q query, got []neighbor, static bool) error {
	if len(got) > o.topK {
		return fmt.Errorf("query %d: %d neighbors for top_k %d", k, len(got), o.topK)
	}
	sourceSeen := false
	for r, nb := range got {
		vals, err := o.values(nb.Sample)
		if err != nil {
			return fmt.Errorf("query %d: %w", k, err)
		}
		exact := genomeatscale.ExactJaccard(q.Values, vals)
		if math.Abs(nb.Similarity-exact) > servedTolerance {
			return fmt.Errorf("query %d: neighbor %d served %.12f, exact %.12f", k, nb.Sample, nb.Similarity, exact)
		}
		if nb.Similarity < q.Threshold {
			return fmt.Errorf("query %d: neighbor %d below the threshold", k, nb.Sample)
		}
		if r > 0 && (nb.Similarity > got[r-1].Similarity || nb.Similarity == got[r-1].Similarity && nb.Sample < got[r-1].Sample) {
			return fmt.Errorf("query %d: neighbors out of order at rank %d", k, r)
		}
		if nb.Sample == q.Source {
			sourceSeen = true
			if math.Abs(nb.Similarity-o.expectSource[k]) > servedTolerance {
				return fmt.Errorf("query %d: source %d served %.12f, oracle %.12f", k, q.Source, nb.Similarity, o.expectSource[k])
			}
		}
	}
	if !sourceSeen {
		return fmt.Errorf("query %d: source sample %d (similarity %.4f) not among the neighbors", k, q.Source, o.expectSource[k])
	}
	if want, ok := o.expectFull[k]; ok && static {
		if len(got) != len(want) {
			return fmt.Errorf("query %d: %d neighbors, brute force finds %d", k, len(got), len(want))
		}
		for r := range want {
			if got[r].Sample != want[r].Sample || math.Abs(got[r].Similarity-want[r].Similarity) > servedTolerance {
				return fmt.Errorf("query %d: rank %d is sample %d (%.6f), brute force has %d (%.6f)",
					k, r, got[r].Sample, got[r].Similarity, want[r].Sample, want[r].Similarity)
			}
		}
	}
	return nil
}
