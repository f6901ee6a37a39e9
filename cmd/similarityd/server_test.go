package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/index"
	"genomeatscale/internal/tile"
)

// testCorpus builds a small random corpus and returns the source samples
// alongside it.
func testCorpus(t testing.TB, n, space int, sketchK int) ([]string, [][]uint64, *index.Corpus) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*1000 + int64(sketchK)))
	names := make([]string, n)
	samples := make([][]uint64, n)
	for i := range samples {
		for v := 0; v < space; v++ {
			if rng.Float64() < 0.12 {
				samples[i] = append(samples[i], uint64(v))
			}
		}
		names[i] = fmt.Sprintf("s%03d", i)
	}
	ds, err := core.NewInMemoryDataset(names, samples, uint64(space))
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	c, err := index.Build(ds, index.Options{SketchK: sketchK})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return names, samples, c
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, into any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}

func TestEndpoints(t *testing.T) {
	_, samples, c := testCorpus(t, 12, 200, 4)
	s := newServer(c, 1, 2, false, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var health struct {
		Status  string `json:"status"`
		Samples int    `json:"samples"`
	}
	if resp := getJSON(t, ts, "/healthz", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Samples != 12 {
		t.Fatalf("healthz %+v", health)
	}

	// POST and GET query forms must agree exactly.
	var viaPost, viaGet queryResponse
	postJSON(t, ts, "/v1/query", queryRequest{Values: samples[0], TopK: 5}, &viaPost)
	vals := make([]string, len(samples[0]))
	for i, v := range samples[0] {
		vals[i] = fmt.Sprint(v)
	}
	getJSON(t, ts, "/v1/query?top_k=5&values="+strings.Join(vals, ","), &viaGet)
	if !reflect.DeepEqual(viaPost.Neighbors, viaGet.Neighbors) {
		t.Fatalf("GET and POST queries disagree:\n%v\n%v", viaPost.Neighbors, viaGet.Neighbors)
	}
	if len(viaPost.Neighbors) != 5 || viaPost.Neighbors[0].Sample != 0 || viaPost.Neighbors[0].Similarity != 1 {
		t.Fatalf("self query neighbors %+v", viaPost.Neighbors)
	}

	var app appendResponse
	postJSON(t, ts, "/v1/append", appendRequest{Name: "new", Values: samples[3], TopK: 3}, &app)
	if app.Sample != 12 || app.Samples != 13 {
		t.Fatalf("append response %+v", app)
	}
	if len(app.Neighbors) != 3 || app.Neighbors[0].Sample != 3 || app.Neighbors[0].Similarity != 1 {
		t.Fatalf("append neighbors %+v (want sample 3 as a perfect match)", app.Neighbors)
	}

	var corpus corpusResponse
	getJSON(t, ts, "/v1/corpus?names=1", &corpus)
	if corpus.Samples != 13 || corpus.Segments != 2 || corpus.B != 64 || corpus.SketchK != 4 {
		t.Fatalf("corpus response %+v", corpus)
	}
	if len(corpus.Names) != 13 || corpus.Names[12] != "new" {
		t.Fatalf("corpus names %v", corpus.Names)
	}
	if corpus.Counters.Queries == 0 || corpus.MemoryWords <= 0 {
		t.Fatalf("corpus counters %+v", corpus)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"similarityd_queries_total",
		"similarityd_appends_total 1",
		"similarityd_corpus_samples 13",
		"similarityd_corpus_segments 2",
		"# TYPE similarityd_http_requests_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, metrics)
		}
	}
}

func TestEndpointErrors(t *testing.T) {
	_, _, c := testCorpus(t, 5, 100, 0)
	s := newServer(c, 1, 1, false, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"query bad json", func() *http.Response {
			resp, _ := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{"))
			return resp
		}, http.StatusBadRequest},
		{"query unknown field", func() *http.Response {
			resp, _ := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"nope":1}`))
			return resp
		}, http.StatusBadRequest},
		{"query bad values param", func() *http.Response {
			resp, _ := ts.Client().Get(ts.URL + "/v1/query?values=a,b")
			return resp
		}, http.StatusBadRequest},
		{"query negative topk", func() *http.Response {
			resp, _ := ts.Client().Get(ts.URL + "/v1/query?top_k=-2")
			return resp
		}, http.StatusBadRequest},
		{"query delete method", func() *http.Response {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/query", nil)
			resp, _ := ts.Client().Do(req)
			return resp
		}, http.StatusMethodNotAllowed},
		{"append get method", func() *http.Response {
			resp, _ := ts.Client().Get(ts.URL + "/v1/append")
			return resp
		}, http.StatusMethodNotAllowed},
		{"append missing name", func() *http.Response {
			resp, _ := ts.Client().Post(ts.URL+"/v1/append", "application/json", strings.NewReader(`{"values":[1]}`))
			return resp
		}, http.StatusBadRequest},
		{"corpus post method", func() *http.Response {
			resp, _ := ts.Client().Post(ts.URL+"/v1/corpus", "application/json", nil)
			return resp
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp == nil {
			t.Fatalf("%s: no response", tc.name)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	if s.httpErrors.Load() == 0 {
		t.Fatal("error counter never incremented")
	}

	ro := newServer(c, 1, 1, true, nil)
	tsRO := httptest.NewServer(ro.routes())
	defer tsRO.Close()
	resp, _ := tsRO.Client().Post(tsRO.URL+"/v1/append", "application/json",
		strings.NewReader(`{"name":"x","values":[1]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only append status %d, want 403", resp.StatusCode)
	}
}

// TestServedTopKMatchesBatch is the serving-vs-batch equivalence satellite:
// pairs reconstructed from /v1/query responses (through their JSON
// round-trip) are byte-identical to a batch engine run streamed into a
// TopK sink — Go's shortest-float JSON encoding round-trips float64
// exactly, so even the similarity bits survive the HTTP hop.
func TestServedTopKMatchesBatch(t *testing.T) {
	names, samples, c := testCorpus(t, 16, 220, 0)
	ds, err := core.NewInMemoryDataset(names, samples, 220)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Options{BatchCount: 2, MaskBits: 64, Procs: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	const k = 12
	sink := tile.NewTopK(k)
	if _, err := eng.Stream(context.Background(), ds, sink); err != nil {
		t.Fatal(err)
	}
	want := sink.Pairs()

	s := newServer(c, 0, 4, false, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	var pairs []tile.Pair
	for q := range samples {
		var resp queryResponse
		postJSON(t, ts, "/v1/query", queryRequest{Values: samples[q]}, &resp)
		for _, p := range index.TopPairs(q, resp.Neighbors) {
			if p.I == q {
				pairs = append(pairs, p)
			}
		}
	}
	tile.SortPairs(pairs)
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("served pairs differ from batch TopK\ngot  %v\nwant %v", pairs, want)
	}
}

// TestServedAppendMatchesRebuild: appending over HTTP then querying gives
// results identical to serving a corpus rebuilt from scratch with the
// appended samples included — sketch gate on and off.
func TestServedAppendMatchesRebuild(t *testing.T) {
	for _, sketchK := range []int{0, 8} {
		names, samples, _ := testCorpus(t, 14, 200, sketchK)
		partDS, err := core.NewInMemoryDataset(names[:11], samples[:11], 200)
		if err != nil {
			t.Fatal(err)
		}
		part, err := index.Build(partDS, index.Options{SketchK: sketchK})
		if err != nil {
			t.Fatal(err)
		}
		fullDS, err := core.NewInMemoryDataset(names, samples, 200)
		if err != nil {
			t.Fatal(err)
		}
		full, err := index.Build(fullDS, index.Options{SketchK: sketchK})
		if err != nil {
			t.Fatal(err)
		}

		tsAppend := httptest.NewServer(newServer(part, 1, 2, false, nil).routes())
		defer tsAppend.Close()
		tsRebuild := httptest.NewServer(newServer(full, 1, 2, false, nil).routes())
		defer tsRebuild.Close()

		for i := 11; i < 14; i++ {
			postJSON(t, tsAppend, "/v1/append", appendRequest{Name: names[i], Values: samples[i]}, nil)
		}
		for _, req := range []queryRequest{
			{Values: samples[2]},
			{Values: samples[12], TopK: 6},
			{Values: samples[5], Threshold: 0.15},
			{Values: samples[5], Threshold: 0.15, NoSketch: true},
		} {
			var got, want queryResponse
			postJSON(t, tsAppend, "/v1/query", req, &got)
			postJSON(t, tsRebuild, "/v1/query", req, &want)
			if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
				t.Fatalf("sketchK=%d req=%+v: append-then-query differs from rebuild\ngot  %v\nwant %v",
					sketchK, req, got.Neighbors, want.Neighbors)
			}
		}
	}
}

// TestServedMatchesMapped: a server over an mmap-opened index returns the
// same bytes as one over the in-memory corpus it was written from.
func TestServedMatchesMapped(t *testing.T) {
	_, samples, mem := testCorpus(t, 10, 150, 4)
	path := filepath.Join(t.TempDir(), "corpus.idx")
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	tsMem := httptest.NewServer(newServer(mem, 1, 2, false, nil).routes())
	defer tsMem.Close()
	tsMap := httptest.NewServer(newServer(mapped, 1, 2, false, nil).routes())
	defer tsMap.Close()
	for _, req := range []queryRequest{
		{Values: samples[1], TopK: 4},
		{Values: samples[7], Threshold: 0.25},
	} {
		var a, b queryResponse
		postJSON(t, tsMem, "/v1/query", req, &a)
		postJSON(t, tsMap, "/v1/query", req, &b)
		if !reflect.DeepEqual(a.Neighbors, b.Neighbors) {
			t.Fatalf("mapped serving differs from in-memory for %+v", req)
		}
	}
}
