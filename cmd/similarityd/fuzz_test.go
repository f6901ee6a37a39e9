package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"genomeatscale/internal/index"
)

// post drives one request body through the server's routes, in process. A
// panicking handler fails the fuzz run: nothing between here and the
// handler recovers.
func post(s *server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// strictDecode is the fuzz oracle's reading of a body, kept apart from the
// handlers' own: the bytes are one well-formed JSON value (json.Valid
// rejects anything after it) whose fields are all known and in range.
func strictDecode(data []byte, into any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return json.Valid(data) && dec.Decode(into) == nil
}

// listSource is an index.Source over any sorted value lists: fuzzed values
// reach past every universe a core dataset would accept.
type listSource struct {
	names   []string
	samples [][]uint64
}

func (l listSource) NumSamples() int         { return len(l.samples) }
func (l listSource) Sample(i int) []uint64   { return l.samples[i] }
func (l listSource) SampleName(i int) string { return l.names[i] }

func validQuery(topK int, threshold float64) bool {
	return topK >= 0 && threshold >= 0 && threshold <= 1
}

// FuzzQueryBody throws arbitrary bytes at POST /v1/query. The handler must
// never panic; a body that is not one well-formed, in-range request gets a
// 400; any other body gets a 200 carrying exactly what Corpus.Query
// answers for its values.
func FuzzQueryBody(f *testing.F) {
	_, samples, c := testCorpus(f, 12, 200, 4)
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(mustJSON(queryRequest{Values: samples[0], TopK: 5}))
	f.Add(mustJSON(queryRequest{Values: samples[3], Threshold: 0.4}))
	f.Add(mustJSON(queryRequest{Values: samples[3], Threshold: 0.4, NoSketch: true, TopK: 1 << 40}))
	f.Add([]byte(`{"values":[3,1,2,2,18446744073709551615]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"values":[1,2,3],"top_k":-1}`))
	f.Add([]byte(`{"values":[1,2,3],"threshold":1.5}`))
	f.Add([]byte(`{"values":[1,2,3],"threshold":1e999}`))
	f.Add([]byte(`{"values":[1,-2,3]}`))
	f.Add([]byte(`{"values":[1,2.5]}`))
	f.Add([]byte(`{"values":"1,2,3"}`))
	f.Add([]byte(`{"values":[1,2,3],"bogus":true}`))
	f.Add([]byte(`{"values":[1,2,3]} {"values":[4]}`))
	f.Add([]byte(`{"values":[1,2,3]}}`))
	f.Add([]byte(`{"values":[1,2,`))
	f.Add([]byte(`[[[[[[[[[[[[[[[[`))

	s := newServer(c, 1, 2, true, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(s, "/v1/query", body)
		var req queryRequest
		if !strictDecode(body, &req) || !validQuery(req.TopK, req.Threshold) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("malformed body %q answered %d, want 400", body, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid body %q answered %d: %s", body, rec.Code, rec.Body)
		}
		var got queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("decoding the reply to %q: %v", body, err)
		}
		want, err := c.Query(context.Background(), req.Values, index.QueryOptions{
			TopK: req.TopK, Threshold: req.Threshold, NoSketch: req.NoSketch, Workers: 1,
		})
		if err != nil {
			t.Fatalf("direct query for %q: %v", body, err)
		}
		if want == nil {
			want = []index.Neighbor{}
		}
		if !reflect.DeepEqual(got.Neighbors, want) || got.Candidates != c.Samples() {
			t.Fatalf("body %q: served\n%v\ndirect\n%v", body, got.Neighbors, want)
		}
	})
}

// FuzzAppendBody does the same for POST /v1/append, on a fresh corpus each
// time: a rejected body leaves the corpus as it was; an accepted one
// returns the neighbors a query just before the append gives, adds exactly
// one sample, and leaves a corpus that answers a query for the new values
// like one rebuilt from scratch with the sample in it.
func FuzzAppendBody(f *testing.F) {
	names, samples, _ := testCorpus(f, 6, 64, 4)
	f.Add([]byte(`{"name":"n","values":[1,2,3]}`))
	f.Add([]byte(`{"name":"n","values":[9,3,3,1],"top_k":3}`))
	f.Add([]byte(`{"name":"n","values":[5,6,7,8],"threshold":0.1,"top_k":2}`))
	f.Add([]byte(`{"name":"empty set","values":[]}`))
	f.Add([]byte(`{"name":"n","values":[1],"top_k":-4}`))
	f.Add([]byte(`{"name":"n","values":[1],"top_k":-4,"threshold":0.5}`))
	f.Add([]byte(`{"name":"n","values":[1],"threshold":7}`))
	f.Add([]byte(`{"values":[1,2,3]}`))
	f.Add([]byte(`{"name":"","values":[1]}`))
	f.Add([]byte(`{"name":7,"values":[1]}`))
	f.Add([]byte(`{"name":"n","values":[1],"no_sketch":true}`))
	f.Add([]byte(`{"name":"n","values":[1]}x`))
	f.Add([]byte(`{"name":"n","values":[`))
	f.Add([]byte(``))

	build := func(t *testing.T, names []string, samples [][]uint64) *index.Corpus {
		c, err := index.Build(listSource{names, samples}, index.Options{SketchK: 4})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return c
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := build(t, names, samples)
		rec := post(newServer(c, 1, 2, false, nil), "/v1/append", body)
		var req appendRequest
		wantsNeighbors := func() bool { return req.TopK > 0 || req.Threshold > 0 }
		if !strictDecode(body, &req) || req.Name == "" || (wantsNeighbors() && !validQuery(req.TopK, req.Threshold)) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("malformed body %q answered %d, want 400", body, rec.Code)
			}
			if c.Samples() != len(samples) {
				t.Fatalf("rejected body %q changed the corpus", body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid body %q answered %d: %s", body, rec.Code, rec.Body)
		}
		var got appendResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("decoding the reply to %q: %v", body, err)
		}
		if got.Sample != len(samples) || got.Samples != len(samples)+1 || c.Samples() != len(samples)+1 {
			t.Fatalf("body %q: reply %+v, corpus holds %d samples", body, got, c.Samples())
		}
		ctx := context.Background()
		if wantsNeighbors() {
			want, err := build(t, names, samples).Query(ctx, req.Values, index.QueryOptions{TopK: req.TopK, Threshold: req.Threshold, Workers: 1})
			if err != nil {
				t.Fatalf("direct neighbor query for %q: %v", body, err)
			}
			if !reflect.DeepEqual(got.Neighbors, want) {
				t.Fatalf("body %q: served neighbors\n%v\ndirect\n%v", body, got.Neighbors, want)
			}
		}
		vals := slices.Clone(req.Values)
		slices.Sort(vals)
		vals = slices.Compact(vals)
		rebuilt := build(t, append(append([]string{}, names...), req.Name), append(append([][]uint64{}, samples...), vals))
		after, err := c.Query(ctx, req.Values, index.QueryOptions{NoSketch: true})
		if err != nil {
			t.Fatalf("query after append: %v", err)
		}
		want, err := rebuilt.Query(ctx, req.Values, index.QueryOptions{NoSketch: true})
		if err != nil {
			t.Fatalf("query of the rebuilt corpus: %v", err)
		}
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("body %q: append-then-query\n%v\nrebuild-then-query\n%v", body, after, want)
		}
	})
}
