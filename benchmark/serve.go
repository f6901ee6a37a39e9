package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"genomeatscale/internal/index"
	"genomeatscale/internal/synth"
)

// serveInputs is everything the serve stage needs, generated at set-up.
type serveInputs struct {
	corpus  *dataset
	queries []query
	appends []appendSample
	oracle  *serveOracle
}

func genServeInputs(spec serveSpec, corpus *dataset, seed uint64) (*serveInputs, error) {
	rng := synth.NewRNG(seed ^ 0x5e57e)
	queries, err := genQueries(rng, corpus, spec.Queries, spec.TopK)
	if err != nil {
		return nil, err
	}
	appends, err := genAppends(rng, corpus, spec.Appends)
	if err != nil {
		return nil, err
	}
	return &serveInputs{corpus: corpus, queries: queries, appends: appends,
		oracle: newServeOracle(corpus, queries, appends, spec.TopK)}, nil
}

// corpusInfo is the part of GET /v1/corpus the harness reads.
type corpusInfo struct {
	Samples  int            `json:"samples"`
	Segments int            `json:"segments"`
	Counters index.Counters `json:"counters"`
}

// serveResult holds the raw measurements of one serve stage.
type serveResult struct {
	ReadyS []float64 // exec → first 200 from /healthz, one per start

	QueryMS    []float64 // phase R client latency of correct replies
	ComputeMS  []float64 // phase R elapsed_seconds the replies report
	OverheadMS []float64 // phase R client latency − elapsed_seconds
	QPS        float64   // phase R correct replies per second of wall time
	Clients    int

	StormQueryMS []float64 // phase S query latency while appends run
	AppendMS     []float64 // phase S append latency

	Non200      int
	AfterR      corpusInfo
	AfterStorm  corpusInfo
	ServedRSSMB float64
}

// builtIndex is the index file of a corpus and what making it cost.
type builtIndex struct {
	Path   string
	BuildS float64 // index.Build
	WriteS float64 // Corpus.WriteFile, fsync included
	Bytes  int64
}

// buildIndex builds the corpus index and writes it to path, timing the two
// calls apart.
func buildIndex(corpus *dataset, sketchK int, path string) (builtIndex, error) {
	bi := builtIndex{Path: path}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return bi, err
	}
	t0 := time.Now()
	c, err := index.Build(corpus, index.Options{SketchK: sketchK})
	if err != nil {
		return bi, err
	}
	bi.BuildS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := c.WriteFile(path); err != nil {
		return bi, err
	}
	bi.WriteS = time.Since(t0).Seconds()
	info, err := os.Stat(path)
	if err != nil {
		return bi, err
	}
	bi.Bytes = info.Size()
	return bi, nil
}

// newClient returns a keep-alive HTTP client that holds one connection of
// its own, like one caller of the service.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
}

// reply is one finished HTTP exchange.
type reply struct {
	Status int
	Body   []byte
	MS     float64 // send → body fully read
	Err    error
}

func post(c *http.Client, url string, body []byte) reply {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{Status: resp.StatusCode, Body: data, MS: float64(time.Since(start)) / 1e6, Err: err}
}

func getCorpusInfo(url string) (corpusInfo, error) {
	var info corpusInfo
	resp, err := http.Get(url + "/v1/corpus")
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("/v1/corpus: status %d", resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

type queryReply struct {
	Neighbors      []neighbor `json:"neighbors"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
}

// judgeQuery turns one query exchange into an operation: any transport
// error, non-200 status, undecodable body or wrong neighbor list fails it.
func (r *serveResult) judgeQuery(o *serveOracle, k int, q query, rp reply, static bool) (queryReply, error) {
	var qr queryReply
	if rp.Err != nil {
		return qr, fmt.Errorf("query %d: %w", k, rp.Err)
	}
	if rp.Status != http.StatusOK {
		r.Non200++
		return qr, fmt.Errorf("query %d: status %d: %s", k, rp.Status, bytes.TrimSpace(rp.Body))
	}
	if err := json.Unmarshal(rp.Body, &qr); err != nil {
		return qr, fmt.Errorf("query %d: %w", k, err)
	}
	return qr, o.checkReply(k, q, qr.Neighbors, static)
}

// runServe runs the serve stage on a freshly built index: start
// similarityd on it, phase R (closed-loop queries from one keep-alive
// client per CPU), phase S (one client queries while another appends),
// then a graceful stop. Every query and append is tallied.
func (e env) runServe(ctx context.Context, spec serveSpec, in *serveInputs, indexPath string, t *tally) (*serveResult, error) {
	res := &serveResult{Clients: runtime.NumCPU()}
	// ready_s is a few milliseconds; start and stop the server spec.Starts−1
	// times for a median before the start that serves the phases.
	for i := 1; i < spec.Starts; i++ {
		srv, err := e.startServer(ctx, indexPath)
		if err != nil {
			return nil, err
		}
		res.ReadyS = append(res.ReadyS, srv.ReadyS)
		if _, err := srv.stop(); err != nil {
			return nil, err
		}
	}
	srv, err := e.startServer(ctx, indexPath)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	res.ReadyS = append(res.ReadyS, srv.ReadyS)
	// The clients share two CPUs with the server they measure. Collect the
	// harness's garbage now and not during the phases, where a collection
	// cycle would show up in the server's latency tail.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	queryURL, appendURL := srv.URL+"/v1/query", srv.URL+"/v1/append"

	// Phase R: each client takes the next unsent query when its reply has
	// arrived, so both stay busy until the phase ends and each sees the same
	// mix (a fixed even/odd split would give one client every thresholded
	// query and leave the other to finish alone).
	replies := make([]reply, spec.PhaseR)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < res.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			for k := int(next.Add(1)) - 1; k < len(replies); k = int(next.Add(1)) - 1 {
				replies[k] = post(client, queryURL, in.queries[k%len(in.queries)].Body)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for k, rp := range replies {
		qk := k % len(in.queries)
		qr, err := res.judgeQuery(in.oracle, qk, in.queries[qk], rp, true)
		t.op(err)
		if err == nil {
			res.QueryMS = append(res.QueryMS, rp.MS)
			res.ComputeMS = append(res.ComputeMS, qr.ElapsedSeconds*1e3)
			res.OverheadMS = append(res.OverheadMS, rp.MS-qr.ElapsedSeconds*1e3)
		}
	}
	res.QPS = float64(len(res.QueryMS)) / wall
	if res.AfterR, err = getCorpusInfo(srv.URL); err != nil {
		return nil, err
	}

	// Phase S: one client queries while the other appends. The querier
	// paces the appender — it releases append j once j/Appends of the
	// StormQueries have been answered — so durable writes and a growing
	// segment count accompany the whole phase instead of its first tenth
	// (an append takes a fraction of a query's time), both counts are fixed,
	// and the waiting appender sleeps on a channel instead of taking a CPU
	// from the server.
	appendReplies := make([]reply, len(in.appends))
	due := make(chan int, len(in.appends))
	var appendsDone atomic.Bool
	var stormReplies []reply
	wg.Add(2)
	go func() {
		defer wg.Done()
		client := newClient()
		for j := range due {
			appendReplies[j] = post(client, appendURL, in.appends[j].Body)
		}
		appendsDone.Store(true)
	}()
	go func() {
		defer wg.Done()
		client := newClient()
		released, closed := 0, false
		for k := 0; !appendsDone.Load() || k < spec.StormQueries; k++ {
			for ; released < len(in.appends) && released*spec.StormQueries/len(in.appends) <= k; released++ {
				due <- released
			}
			if released == len(in.appends) && !closed {
				close(due)
				closed = true
			}
			stormReplies = append(stormReplies, post(client, queryURL, in.queries[k%len(in.queries)].Body))
		}
	}()
	wg.Wait()
	for k, rp := range stormReplies {
		qk := k % len(in.queries)
		_, err := res.judgeQuery(in.oracle, qk, in.queries[qk], rp, false)
		t.op(err)
		if err == nil {
			res.StormQueryMS = append(res.StormQueryMS, rp.MS)
		}
	}
	for k, rp := range appendReplies {
		err := judgeAppend(in.corpus.N+k, rp)
		if rp.Err == nil && rp.Status != http.StatusOK {
			res.Non200++
		}
		t.op(err)
		if err == nil {
			res.AppendMS = append(res.AppendMS, rp.MS)
		}
	}
	if res.AfterStorm, err = getCorpusInfo(srv.URL); err != nil {
		return nil, err
	}
	// The appended samples must be queryable: the first, middle and last
	// each find themselves at similarity 1.
	client := newClient()
	for _, k := range []int{0, len(in.appends) / 2, len(in.appends) - 1} {
		t.op(checkAppended(client, queryURL, in.corpus.N+k, in.appends[k]))
	}

	stopped = true
	if res.ServedRSSMB, err = srv.stop(); err != nil {
		return nil, err
	}
	// Appends are durable: the file reopens with every appended segment.
	t.op(checkReopen(indexPath, in.corpus.N+len(in.appends), 1+len(in.appends)))
	return res, nil
}

// readyWarmup is how many of a run's first server starts ready_s leaves
// out: they find the binary and the index file colder than the rest and
// take up to a third longer.
const readyWarmup = 5

// readySummary reports ready_s: the median of the starts after the warm-up.
func readySummary(readyS []float64) metric {
	return summary(readyS[min(readyWarmup, len(readyS)-1):], "s")
}

type appendReply struct {
	Sample  int `json:"sample"`
	Samples int `json:"samples"`
}

func judgeAppend(wantID int, rp reply) error {
	if rp.Err != nil {
		return fmt.Errorf("append %d: %w", wantID, rp.Err)
	}
	if rp.Status != http.StatusOK {
		return fmt.Errorf("append %d: status %d: %s", wantID, rp.Status, bytes.TrimSpace(rp.Body))
	}
	var ar appendReply
	if err := json.Unmarshal(rp.Body, &ar); err != nil {
		return fmt.Errorf("append %d: %w", wantID, err)
	}
	if ar.Sample != wantID || ar.Samples != wantID+1 {
		return fmt.Errorf("append %d: reply says sample %d of %d", wantID, ar.Sample, ar.Samples)
	}
	return nil
}

func checkAppended(c *http.Client, queryURL string, id int, a appendSample) error {
	body, err := json.Marshal(queryBody{Values: a.Values, TopK: 1})
	if err != nil {
		return err
	}
	rp := post(c, queryURL, body)
	var qr queryReply
	if rp.Err != nil || rp.Status != http.StatusOK || json.Unmarshal(rp.Body, &qr) != nil {
		return fmt.Errorf("querying appended sample %d: status %d, %v", id, rp.Status, rp.Err)
	}
	if len(qr.Neighbors) != 1 || qr.Neighbors[0].Sample != id || qr.Neighbors[0].Similarity != 1 {
		return fmt.Errorf("appended sample %d does not find itself: %+v", id, qr.Neighbors)
	}
	return nil
}

func checkReopen(path string, samples, segments int) error {
	c, err := index.Open(path)
	if err != nil {
		return fmt.Errorf("reopening the index after the storm: %w", err)
	}
	defer c.Close()
	if c.Samples() != samples || c.Segments() != segments {
		return fmt.Errorf("reopened index holds %d samples in %d segments, want %d in %d", c.Samples(), c.Segments(), samples, segments)
	}
	return nil
}
