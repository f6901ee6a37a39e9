package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"genomeatscale/internal/cliutil"
	"genomeatscale/internal/core"
	"genomeatscale/internal/index"
)

// server is the long-running query service over one index.Corpus. Handlers
// are safe for concurrent use: the corpus serialises appends internally
// and queries are lock-free; the server adds a semaphore bounding the
// number of queries computing at once (each query already parallelises
// internally via internal/par, so admitting an unbounded number would
// oversubscribe the popcount workers).
type server struct {
	corpus     *index.Corpus
	workers    int           // per-query popcount parallelism
	sem        chan struct{} // concurrent-query limiter
	readOnly   bool
	buildStats *core.RunStats // optional batch-build RunStats (-build-stats)
	started    time.Time

	requests   atomic.Int64
	inFlight   atomic.Int64
	httpErrors atomic.Int64
	queryNanos atomic.Int64

	// queryDelay stalls query execution after admission — a test hook for
	// exercising graceful drain with a request reliably in flight.
	queryDelay time.Duration
}

func newServer(corpus *index.Corpus, workers, maxConcurrent int, readOnly bool, buildStats *core.RunStats) *server {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	return &server{
		corpus:     corpus,
		workers:    workers,
		sem:        make(chan struct{}, maxConcurrent),
		readOnly:   readOnly,
		buildStats: buildStats,
		started:    time.Now(),
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.track(s.handleHealthz))
	mux.HandleFunc("/v1/query", s.track(s.handleQuery))
	mux.HandleFunc("/v1/append", s.track(s.handleAppend))
	mux.HandleFunc("/v1/corpus", s.track(s.handleCorpus))
	mux.HandleFunc("/metrics", s.track(s.handleMetrics))
	return mux
}

// track counts requests and in-flight work around a handler. The request
// context doubles as the cancellation signal for query compute: a client
// that disconnects aborts its popcount loop via par.ForEachCtx.
func (s *server) track(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		h(w, r)
	}
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.httpErrors.Add(1)
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"samples":        s.corpus.Samples(),
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// queryRequest is the /v1/query body (POST) — GET maps the same fields
// from URL parameters (values as a comma-separated list) for curl use.
type queryRequest struct {
	Values    []uint64 `json:"values"`
	TopK      int      `json:"top_k"`
	Threshold float64  `json:"threshold"`
	NoSketch  bool     `json:"no_sketch"`
}

type queryResponse struct {
	Neighbors      []index.Neighbor `json:"neighbors"`
	Candidates     int              `json:"candidates"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
}

// maxBodyBytes bounds a request body: decoding stops with an error once a
// client has sent more.
const maxBodyBytes = 64 << 20

// decodeBody reads the request body as exactly one JSON value into v.
// Unknown fields, a body past maxBodyBytes and anything but white space
// after the value are errors.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *server) parseQueryRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	switch r.Method {
	case http.MethodPost:
		if err := decodeBody(r, &req); err != nil {
			return req, fmt.Errorf("decoding body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		if raw := q.Get("values"); raw != "" {
			for _, part := range strings.Split(raw, ",") {
				v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return req, fmt.Errorf("parsing values: %w", err)
				}
				req.Values = append(req.Values, v)
			}
		}
		var err error
		if raw := q.Get("top_k"); raw != "" {
			if req.TopK, err = strconv.Atoi(raw); err != nil {
				return req, fmt.Errorf("parsing top_k: %w", err)
			}
		}
		if raw := q.Get("threshold"); raw != "" {
			if req.Threshold, err = strconv.ParseFloat(raw, 64); err != nil {
				return req, fmt.Errorf("parsing threshold: %w", err)
			}
		}
		req.NoSketch = q.Get("no_sketch") == "1" || q.Get("no_sketch") == "true"
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	return req, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseQueryRequest(r)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "not allowed") {
			status = http.StatusMethodNotAllowed
		}
		s.fail(w, status, "%v", err)
		return
	}
	ctx := r.Context()
	// Admission: block until a query slot frees up or the client leaves.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.fail(w, http.StatusServiceUnavailable, "cancelled while waiting for a query slot")
		return
	}
	if s.queryDelay > 0 {
		time.Sleep(s.queryDelay)
	}
	start := time.Now()
	neighbors, err := s.corpus.Query(ctx, req.Values, index.QueryOptions{
		TopK:      req.TopK,
		Threshold: req.Threshold,
		Workers:   s.workers,
		NoSketch:  req.NoSketch,
	})
	elapsed := time.Since(start)
	s.queryNanos.Add(int64(elapsed))
	if err != nil {
		status := http.StatusBadRequest
		if ctx.Err() != nil {
			status = http.StatusServiceUnavailable
		}
		s.fail(w, status, "query: %v", err)
		return
	}
	if neighbors == nil {
		neighbors = []index.Neighbor{}
	}
	s.writeJSON(w, http.StatusOK, queryResponse{
		Neighbors:      neighbors,
		Candidates:     s.corpus.Samples(),
		ElapsedSeconds: elapsed.Seconds(),
	})
}

type appendRequest struct {
	Name   string   `json:"name"`
	Values []uint64 `json:"values"`
	// TopK, when positive, also returns the new sample's top-k neighbors
	// among the resident samples — the one-row-band Gram extension computed
	// at append time. The query and the append are not atomic: under
	// concurrent appends the neighbors reflect the corpus as of the query,
	// which may already include samples appended after this request began.
	TopK      int     `json:"top_k"`
	Threshold float64 `json:"threshold"`
}

type appendResponse struct {
	Sample    int              `json:"sample"`
	Samples   int              `json:"samples"`
	Neighbors []index.Neighbor `json:"neighbors,omitempty"`
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if s.readOnly {
		s.fail(w, http.StatusForbidden, "server is read-only")
		return
	}
	var req appendRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if req.Name == "" {
		s.fail(w, http.StatusBadRequest, "missing sample name")
		return
	}
	var neighbors []index.Neighbor
	if req.TopK > 0 || req.Threshold > 0 {
		// The neighbor query costs the same popcount work as /v1/query, so
		// it competes for the same admission slots — otherwise concurrent
		// appends could oversubscribe the popcount workers the limiter
		// exists to bound.
		ctx := r.Context()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.fail(w, http.StatusServiceUnavailable, "cancelled while waiting for a query slot")
			return
		}
		var err error
		neighbors, err = s.corpus.Query(ctx, req.Values, index.QueryOptions{
			TopK:      req.TopK,
			Threshold: req.Threshold,
			Workers:   s.workers,
		})
		<-s.sem
		if err != nil {
			status := http.StatusBadRequest
			if ctx.Err() != nil {
				status = http.StatusServiceUnavailable
			}
			s.fail(w, status, "neighbor query: %v", err)
			return
		}
	}
	id, err := s.corpus.Append(req.Name, req.Values)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "append: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, appendResponse{
		Sample:    id,
		Samples:   s.corpus.Samples(),
		Neighbors: neighbors,
	})
}

type corpusResponse struct {
	Path        string         `json:"path"`
	Samples     int            `json:"samples"`
	Segments    int            `json:"segments"`
	B           int            `json:"b"`
	SketchK     int            `json:"sketch_k"`
	MemoryWords int64          `json:"memory_words"`
	Counters    index.Counters `json:"counters"`
	Names       []string       `json:"names,omitempty"`
	BuildStats  *core.RunStats `json:"build_stats,omitempty"`
}

func (s *server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	resp := corpusResponse{
		Path:        s.corpus.Path(),
		Samples:     s.corpus.Samples(),
		Segments:    s.corpus.Segments(),
		B:           s.corpus.B(),
		SketchK:     s.corpus.SketchK(),
		MemoryWords: s.corpus.MemoryWords(),
		Counters:    s.corpus.Counters(),
		BuildStats:  s.buildStats,
	}
	if v := r.URL.Query().Get("names"); v == "1" || v == "true" {
		resp.Names = s.corpus.Names()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the Prometheus text exposition format by hand —
// the format is a stable line protocol and the stdlib-only constraint
// rules out the client library. Sources: the corpus's operation counters,
// the server's HTTP counters, and (when provided) the batch build's
// RunStats/IngestStats re-read from the -stats-json artifact.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	cts := s.corpus.Counters()
	type metric struct {
		name, typ, help string
		value           float64
	}
	m := []metric{
		{"similarityd_queries_total", "counter", "Queries executed against the corpus.", float64(cts.Queries)},
		{"similarityd_appends_total", "counter", "Samples appended to the corpus.", float64(cts.Appends)},
		{"similarityd_popcounts_total", "counter", "Exact query-column popcounts computed.", float64(cts.Popcounts)},
		{"similarityd_sketch_skips_total", "counter", "Samples skipped by the MinHash gate.", float64(cts.SketchSkips)},
		{"similarityd_query_samples_total", "counter", "Corpus samples considered across all queries.", float64(cts.QuerySamples)},
		{"similarityd_query_seconds_total", "counter", "Wall-clock seconds spent computing queries.", float64(s.queryNanos.Load()) / 1e9},
		{"similarityd_http_requests_total", "counter", "HTTP requests received.", float64(s.requests.Load())},
		{"similarityd_http_errors_total", "counter", "HTTP error responses sent.", float64(s.httpErrors.Load())},
		{"similarityd_http_in_flight", "gauge", "HTTP requests currently being served.", float64(s.inFlight.Load())},
		{"similarityd_corpus_samples", "gauge", "Samples resident in the corpus.", float64(s.corpus.Samples())},
		{"similarityd_corpus_segments", "gauge", "Segments in the corpus (1 + appends since build).", float64(s.corpus.Segments())},
		{"similarityd_corpus_memory_words", "gauge", "Packed storage footprint in 64-bit words.", float64(s.corpus.MemoryWords())},
		{"similarityd_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.started).Seconds()},
	}
	if bs := s.buildStats; bs != nil {
		m = append(m,
			metric{"similarityd_build_seconds", "gauge", "Wall-clock seconds of the batch build that produced the index.", bs.TotalSeconds},
			metric{"similarityd_build_batches", "gauge", "Row batches the build processed.", float64(bs.Batches)},
			metric{"similarityd_build_indicator_nonzeros", "gauge", "nnz(A) of the built corpus.", float64(bs.IndicatorNonzeros)},
			metric{"similarityd_build_tiles_emitted", "gauge", "Tiles the build streamed to its sink.", float64(bs.TilesEmitted)},
		)
		if bs.Ingest != nil {
			m = append(m, metric{"similarityd_build_ingest_loads", "gauge", "Sample loads performed by the build's out-of-core ingest.", float64(bs.Ingest.Loads)})
		}
	}
	sort.Slice(m, func(i, j int) bool { return m[i].name < m[j].name })
	for _, mt := range m {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", mt.name, mt.help, mt.name, mt.typ, mt.name, mt.value)
	}
}

// loadBuildStats reads a RunStats JSON artifact written by a batch CLI's
// -stats-json flag.
func loadBuildStats(path string) (*core.RunStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cliutil.ReadStatsJSON(f)
}
