package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"locmap/internal/experiments"
	"locmap/internal/metrics"
)

const triadSrc = `
param N = 16384
array A[N]
array B[N]
array C[N]
parallel for i = 0..N work 64 {
  A[i] = B[i] + C[i]
}
`

// mapReq builds a MapRequest around source with defaults.
func mapReq(src string) MapRequest {
	return MapRequest{CommonRequest: CommonRequest{Source: src}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out.Bytes()
}

func decodeMapResponse(t *testing.T, body []byte) MapResponse {
	t.Helper()
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return mr
}

func decodeErrorResponse(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, body)
	}
	return er.Error
}

// TestMapRepeatedRequestHitsCache is the acceptance test: a repeated
// identical /v1/map request must be served from the plan cache with a
// byte-identical plan (schedule included).
func TestMapRepeatedRequestHitsCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := mapReq(triadSrc)

	resp1, body1 := postJSON(t, ts.URL+"/v1/map", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", resp1.StatusCode, body1)
	}
	mr1 := decodeMapResponse(t, body1)
	if mr1.Cached {
		t.Fatalf("first request reported cached=true")
	}
	before := s.cache.Stats()

	resp2, body2 := postJSON(t, ts.URL+"/v1/map", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", resp2.StatusCode, body2)
	}
	mr2 := decodeMapResponse(t, body2)
	if !mr2.Cached {
		t.Fatalf("second identical request not served from cache")
	}
	after := s.cache.Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("cache hits went %d -> %d, want +1", before.Hits, after.Hits)
	}
	if mr1.Fingerprint != mr2.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", mr1.Fingerprint, mr2.Fingerprint)
	}
	if !bytes.Equal(mr1.Plan, mr2.Plan) {
		t.Errorf("cached plan is not byte-identical to the original")
	}
	if mr1.RequestID == "" || mr1.RequestID == mr2.RequestID {
		t.Errorf("request ids not unique per request: %q vs %q", mr1.RequestID, mr2.RequestID)
	}

	var plan Plan
	if err := json.Unmarshal(mr2.Plan, &plan); err != nil {
		t.Fatalf("plan does not decode: %v", err)
	}
	if len(plan.Schedule) != 1 || len(plan.Schedule[0]) == 0 {
		t.Fatalf("plan has no schedule: %+v", plan.Nests)
	}
	if plan.NeedsInspector {
		t.Errorf("regular program flagged for the inspector")
	}
	if !strings.Contains(plan.Listing, "locmap output") {
		t.Errorf("listing missing header: %q", plan.Listing)
	}
}

// TestMapWhitespaceVariantHitsCache: reformatting the source must not
// fragment the cache.
func TestMapWhitespaceVariantHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body1 := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	mr1 := decodeMapResponse(t, body1)

	reformatted := "# same program, reformatted\n" + strings.ReplaceAll(triadSrc, "\n", " ")
	_, body2 := postJSON(t, ts.URL+"/v1/map", mapReq(reformatted))
	mr2 := decodeMapResponse(t, body2)
	if !mr2.Cached {
		t.Fatalf("reformatted source missed the cache")
	}
	if !bytes.Equal(mr1.Plan, mr2.Plan) {
		t.Errorf("plans differ across reformatting")
	}
}

// TestResolvedEcho: responses must echo the effective configuration
// with defaults applied.
func TestResolvedEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	mr := decodeMapResponse(t, body)
	want := Resolved{Mesh: "6x6", Regions: "3x3", LLC: "private", Intra: "random"}
	if !reflect.DeepEqual(mr.Resolved, want) {
		t.Errorf("resolved = %+v, want %+v", mr.Resolved, want)
	}

	req := SimulateRequest{CommonRequest: CommonRequest{
		Source: triadSrc, LLC: "shared", Intra: "roundrobin", Seed: 3,
	}, TimingIters: 2}
	if testing.Short() {
		// The resolved echo is computed before the job runs; exercise
		// it without simulating by checking the request-side helper.
		got := req.resolved()
		if got.LLC != "shared" || got.Intra != "roundrobin" || got.TimingIters != 2 || got.Seed != 3 {
			t.Errorf("simulate resolved = %+v", got)
		}
		return
	}
	_, body = postJSON(t, ts.URL+"/v1/simulate", req)
	mr = decodeMapResponse(t, body)
	wantSim := Resolved{Mesh: "6x6", Regions: "3x3", LLC: "shared",
		Intra: "roundrobin", Seed: 3, TimingIters: 2}
	if !reflect.DeepEqual(mr.Resolved, wantSim) {
		t.Errorf("simulate resolved = %+v, want %+v", mr.Resolved, wantSim)
	}
}

// TestMapMalformedRequests: every 4xx path answers with the JSON
// envelope and its documented stable code.
func TestMapMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		name     string
		body     string
		want     int
		wantCode ErrorCode
	}{
		{"bad json", "{not json", http.StatusBadRequest, ErrInvalidBody},
		{"unknown field", `{"source":"x","bogus":1}`, http.StatusBadRequest, ErrInvalidBody},
		{"empty source", `{"source":""}`, http.StatusBadRequest, ErrInvalidRequest},
		{"bad mesh", `{"source":"param N = 4","mesh":"6by6"}`, http.StatusBadRequest, ErrInvalidRequest},
		{"bad llc", `{"source":"param N = 4","llc":"l4"}`, http.StatusBadRequest, ErrInvalidRequest},
		{"bad accuracy", `{"source":"param N = 4","cme_accuracy":2}`, http.StatusBadRequest, ErrInvalidRequest},
		{"bad intra", `{"source":"param N = 4","intra":"zigzag"}`, http.StatusBadRequest, ErrInvalidRequest},
		{"unlexable source", `{"source":"parallel for i = 0..N { A[i] = B[i] ; }"}`, http.StatusBadRequest, ErrInvalidSource},
		{"non-ASCII source", `{"source":"é"}`, http.StatusBadRequest, ErrInvalidSource},
		{"non-ASCII identifier", `{"source":"param N = 4\narray Ä[N]"}`, http.StatusBadRequest, ErrInvalidSource},
		{"unparsable source", `{"source":"for for for"}`, http.StatusUnprocessableEntity, ErrCompileFailed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			eb := decodeErrorResponse(t, body.Bytes())
			if eb.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", eb.Code, tc.wantCode)
			}
			if eb.Message == "" {
				t.Errorf("empty error message")
			}
			if eb.RequestID == "" || eb.RequestID != resp.Header.Get("X-Request-Id") {
				t.Errorf("request id %q does not match header %q", eb.RequestID, resp.Header.Get("X-Request-Id"))
			}
		})
	}
}

// TestMethodNotAllowed: the method-qualified mux's fallbacks must
// answer 405 with an Allow header and the envelope, on every endpoint.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/map", "POST"},
		{http.MethodDelete, "/v1/map", "POST"},
		{http.MethodGet, "/v1/simulate", "POST"},
		{http.MethodPost, "/v1/stats", "GET"},
		{http.MethodGet, "/v1/batch", "POST"},
		{http.MethodPost, "/v1/batch/some-id", "GET"},
		{http.MethodPut, "/v1/jobs/some-id", "DELETE, GET"},
		{http.MethodPut, "/v1/sessions", "GET, POST"},
		{http.MethodPost, "/v1/sessions/some-id", "DELETE, GET"},
		{http.MethodGet, "/v1/sessions/some-id/telemetry", "POST"},
		{http.MethodPost, "/v1/sessions/some-id/plan", "GET"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodPost, "/readyz", "GET, HEAD"},
	}
	for _, tc := range tests {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if eb := decodeErrorResponse(t, body.Bytes()); eb.Code != ErrMethodNotAllowed {
			t.Errorf("%s %s: code = %q, want %q", tc.method, tc.path, eb.Code, ErrMethodNotAllowed)
		}
	}
}

// TestNotFound: unknown paths get the envelope too — no plain-text
// error bodies remain anywhere.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/nonsense")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if eb := decodeErrorResponse(t, body.Bytes()); eb.Code != ErrNotFound {
		t.Errorf("code = %q, want %q", eb.Code, ErrNotFound)
	}
}

// TestBodyTooLarge: an oversized body answers 413 with its own code.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 256))
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if eb := decodeErrorResponse(t, body.Bytes()); eb.Code != ErrBodyTooLarge {
		t.Errorf("code = %q, want %q", eb.Code, ErrBodyTooLarge)
	}
}

// TestErrorCodeContract round-trips every documented error code (see
// API.md): each must be reachable over HTTP with its documented
// status, except timeout, whose job-side mapping is asserted directly.
func TestErrorCodeContract(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond,
		MaxBodyBytes: 512, MaxBatchJobs: 2, QueueLimit: 1})
	got := map[ErrorCode]int{}

	do := func(method, path, body string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, ts.URL+path, rd)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		eb := decodeErrorResponse(t, buf.Bytes())
		if prev, dup := got[eb.Code]; dup && prev != resp.StatusCode {
			t.Errorf("code %q seen with statuses %d and %d", eb.Code, prev, resp.StatusCode)
		}
		got[eb.Code] = resp.StatusCode
	}

	do("POST", "/v1/map", "{")                                                    // invalid_body
	do("POST", "/v1/map", fmt.Sprintf(`{"source":%q}`, strings.Repeat("y", 600))) // body_too_large
	do("POST", "/v1/map", `{"source":""}`)                                        // invalid_request
	do("POST", "/v1/map", `{"source":"parallel for i = 0..N { A[i] = B[i] ; }"}`) // invalid_source
	do("POST", "/v1/map", `{"source":"for for for"}`)                             // compile_failed
	do("GET", "/v1/map", "")                                                      // method_not_allowed
	do("GET", "/v1/missing", "")                                                  // not_found

	bj := `{"kind":"map","request":{"source":"param N = 4"}}`
	do("POST", "/v1/batch", fmt.Sprintf(`{"jobs":[%s,%s,%s]}`, bj, bj, bj)) // batch_too_large (MaxBatchJobs=2)
	do("POST", "/v1/batch", fmt.Sprintf(`{"jobs":[%s,%s]}`, bj, bj))        // queue_full (QueueLimit=1)
	do("GET", "/v1/batch/no-such-batch", "")                                // batch_not_found
	do("GET", "/v1/jobs/no-such-job", "")                                   // job_not_found

	// job_not_cancellable: only queued jobs can be cancelled, so run a
	// one-job batch to a terminal state and then try to DELETE it.
	var sub BatchSubmitResponse
	// A source distinct from the overloaded probe's below: a batch job
	// warms the plan cache, and a warmed sync request would bypass the
	// worker pool instead of timing out on it.
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Jobs: []BatchJobSpec{{
		Kind:    "map",
		Request: json.RawMessage(fmt.Sprintf(`{"source":%q}`, "param N = 16\narray A[N]\nparallel for i = 0..N work 2 { A[i] = A[i] }")),
	}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("batch submit response: %v", err)
	}
	jobURL := ts.URL + "/v1/jobs/" + sub.Jobs[0].JobID
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(jobURL)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var jr JobResponse
		err = json.NewDecoder(r.Body).Decode(&jr)
		r.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if jr.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch job never finished (state %s)", jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	do("DELETE", jobURL[len(ts.URL):], "") // job_not_cancellable

	s.sem <- struct{}{} // hold the only worker: next job request must 503
	do("POST", "/v1/map", fmt.Sprintf(`{"source":%q}`, "param N = 8\narray A[N]\nparallel for i = 0..N work 1 { A[i] = A[i] }"))
	<-s.sem

	s.inflight.Add(1) // saturate the sync pool: readyz must report 503
	do("GET", "/readyz", "")
	s.inflight.Add(-1)

	// timeout: a job that starts but outlives the deadline maps to 504.
	_, apiErr := s.runJob(context.Background(), "contract-slow", TierStatic, func() ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return []byte("{}"), nil
	})
	if apiErr == nil {
		t.Fatalf("slow job did not time out")
	}
	got[apiErr.code] = apiErr.status

	want := map[ErrorCode]int{
		ErrInvalidBody:       http.StatusBadRequest,
		ErrBodyTooLarge:      http.StatusRequestEntityTooLarge,
		ErrInvalidRequest:    http.StatusBadRequest,
		ErrInvalidSource:     http.StatusBadRequest,
		ErrCompileFailed:     http.StatusUnprocessableEntity,
		ErrMethodNotAllowed:  http.StatusMethodNotAllowed,
		ErrNotFound:          http.StatusNotFound,
		ErrOverloaded:        http.StatusServiceUnavailable,
		ErrTimeout:           http.StatusGatewayTimeout,
		ErrBatchTooLarge:     http.StatusBadRequest,
		ErrBatchNotFound:     http.StatusNotFound,
		ErrJobNotFound:       http.StatusNotFound,
		ErrJobNotCancellable: http.StatusConflict,
		ErrQueueFull:         http.StatusServiceUnavailable,
		ErrNotReady:          http.StatusServiceUnavailable,
	}
	for code, status := range want {
		if got[code] != status {
			t.Errorf("code %q: got status %d, want %d", code, got[code], status)
		}
	}
	for code := range got {
		if _, ok := want[code]; !ok {
			t.Errorf("undocumented code %q produced", code)
		}
	}
}

// lockedBuf is a goroutine-safe log sink.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRequestIDEchoedAndLogged: a client-supplied X-Request-Id is
// echoed in the header, the envelope and the slog line; a missing one
// is generated.
func TestRequestIDEchoedAndLogged(t *testing.T) {
	var logs lockedBuf
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader(`{"source":""}`))
	req.Header.Set("X-Request-Id", "client-chose-this-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-chose-this-42" {
		t.Errorf("header id = %q, want the client's", got)
	}
	if eb := decodeErrorResponse(t, body.Bytes()); eb.RequestID != "client-chose-this-42" {
		t.Errorf("envelope id = %q, want the client's", eb.RequestID)
	}

	// The log line is emitted before the response body is fully
	// flushed, but give the runtime a moment anyway.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logs.String(), "request_id=client-chose-this-42") {
		if time.Now().After(deadline) {
			t.Fatalf("log line missing request id; logs:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	line := logs.String()
	for _, want := range []string{"endpoint=map", "status=400", "error_code=invalid_request"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q:\n%s", want, line)
		}
	}

	// A request without an id gets a generated one, echoed in the header.
	resp2, body2 := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	mr := decodeMapResponse(t, body2)
	if mr.RequestID == "" || mr.RequestID != resp2.Header.Get("X-Request-Id") {
		t.Errorf("generated id %q does not match header %q", mr.RequestID, resp2.Header.Get("X-Request-Id"))
	}
}

// TestMapConcurrent issues a mix of distinct and repeated requests in
// parallel; under -race this exercises the worker pool, the cache and
// the concurrent compile pipeline.
func TestMapConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const goroutines = 12
	var wg sync.WaitGroup
	plans := make([][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Three distinct programs (work sizes), repeated across
			// goroutines.
			src := fmt.Sprintf(`
param N = 8192
array A[N]
array B[N]
parallel for i = 0..N work %d {
  A[i] = B[i]
}
`, 32<<(g%3))
			resp, body := postJSON(t, ts.URL+"/v1/map", mapReq(src))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, body)
				return
			}
			plans[g] = decodeMapResponse(t, body).Plan
		}(g)
	}
	wg.Wait()
	// Same program -> byte-identical plan, no matter which goroutine
	// or cache state produced it.
	for g := 3; g < goroutines; g++ {
		if plans[g] == nil || plans[g-3] == nil {
			continue
		}
		if !bytes.Equal(plans[g], plans[g-3]) {
			t.Errorf("plan for program %d differs between goroutines %d and %d", g%3, g-3, g)
		}
	}
	if st := s.cache.Stats(); st.Entries != 3 {
		t.Errorf("cache entries = %d, want 3 distinct programs", st.Entries)
	}
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, url string) *metrics.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	exp, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return exp
}

// TestMetricsLoadCacheHitsObservable is the observability acceptance
// test: under a burst of identical requests, cache hits must be
// visible in the response envelope, in the cache-outcome counters and
// in the per-shard plancache families, and the per-endpoint request
// counters must agree with /v1/stats.
func TestMetricsLoadCacheHitsObservable(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	ms := httptest.NewServer(s.MetricsHandler())
	defer ms.Close()

	// Prime the cache, then hammer the same request concurrently.
	resp, body := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d: %s", resp.StatusCode, body)
	}
	const burst = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	cached := 0
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("burst: status %d", resp.StatusCode)
				return
			}
			if decodeMapResponse(t, body).Cached {
				mu.Lock()
				cached++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if cached != burst {
		t.Errorf("cached responses = %d, want %d (cache was primed)", cached, burst)
	}

	exp := scrape(t, ms.URL)
	if v, ok := exp.Value("locmapd_cache_requests_total", metrics.Labels{"endpoint": "map", "result": "hit"}); !ok || v != burst {
		t.Errorf("cache hit counter = %g, %v; want %d", v, ok, burst)
	}
	if v, ok := exp.Value("locmapd_cache_requests_total", metrics.Labels{"endpoint": "map", "result": "miss"}); !ok || v != 1 {
		t.Errorf("cache miss counter = %g, %v; want 1", v, ok)
	}

	// Per-shard plancache hits must sum to the cache's own accounting.
	var shardHits float64
	for i := 0; i < s.cache.NumShards(); i++ {
		v, _ := exp.Value("locmapd_plancache_hits_total", metrics.Labels{"shard": fmt.Sprintf("%d", i)})
		shardHits += v
	}
	if want := float64(s.cache.Stats().Hits); shardHits != want {
		t.Errorf("per-shard hits sum = %g, cache reports %g", shardHits, want)
	}

	// Request counters agree with /v1/stats.
	if v, ok := exp.Value("locmapd_requests_total", metrics.Labels{"endpoint": "map", "code": "200"}); !ok || v != burst+1 {
		t.Errorf("requests_total{map,200} = %g, %v; want %d", v, ok, burst+1)
	}
	if v, ok := exp.Value("locmapd_request_seconds_count", metrics.Labels{"endpoint": "map"}); !ok || v != burst+1 {
		t.Errorf("request_seconds_count = %g, %v; want %d", v, ok, burst+1)
	}
	if snap := s.Snapshot(); snap.Requests != burst+1 {
		t.Errorf("/v1/stats requests = %d, want %d", snap.Requests, burst+1)
	}
}

// TestMetricsContract scrapes twice and verifies the exposition stays
// parseable (no duplicate families) with monotone counters, and that
// the server, plancache and runner families are all present.
func TestMetricsContract(t *testing.T) {
	s, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	ms := httptest.NewServer(s.MetricsHandler())
	defer ms.Close()

	// A runner registered into the server's registry shares the
	// exposition (how a service hosting both would wire it).
	runner := experiments.NewRunner(2)
	runner.Register(s.Registry())

	postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	postJSON(t, ts.URL+"/v1/map", mapReq("")) // 400
	http.Get(ts.URL + "/v1/nope")             // 404
	http.Get(ts.URL + "/v1/map")              // 405
	// A live session instantiates the per-tenant SLO families.
	createSession(t, ts.URL, triadSrc, "contract")

	first := scrape(t, ms.URL)
	for _, fam := range []string{
		"locmapd_requests_total",
		"locmapd_request_seconds",
		"locmapd_http_inflight_requests",
		"locmapd_worker_inflight_jobs",
		"locmapd_queue_rejects_total",
		"locmapd_job_timeouts_total",
		"locmapd_cache_requests_total",
		"locmapd_plancache_hits_total",
		"locmapd_plancache_misses_total",
		"locmapd_plancache_evictions_total",
		"locmapd_plancache_entries",
		"locmapd_sim_cycles",
		"locmapd_sim_llc_hit_fraction",
		"locmapd_sim_leg_avg_cycles",
		"locmapd_tier_served_total",
		"locmapd_verify_alpha_drift",
		"locmapd_verify_latency_drift",
		"locmapd_verify_dropped_total",
		"locmapd_plancache_tier_upgrades_total",
		"locmapd_jobqueue_depth",
		"locmapd_jobqueue_jobs",
		"locmapd_jobqueue_transitions_total",
		"locmapd_jobqueue_dedup_total",
		"locmapd_jobqueue_retention_evictions_total",
		"locmapd_jobqueue_replay_seconds",
		"locmapd_jobqueue_journal_bytes",
		"locmapd_jobqueue_journal_records_total",
		"locmapd_jobqueue_compactions_total",
		"locmapd_plancache_replay_warms_total",
		"locmapd_cluster_forwards_total",
		"locmapd_cluster_remote_hits_total",
		"locmapd_cluster_peer_errors_total",
		"locmapd_sessions_active",
		"locmapd_remap_dropped_total",
		"locmapd_session_epochs_total",
		"locmapd_session_drift_at_trigger",
		"locmapd_session_remap_latency_seconds",
		"locmapd_session_interference_score",
		"locmap_runner_jobs_requested_total",
		"locmap_runner_jobs_executed_total",
		"locmap_runner_jobs_memoized_total",
		"locmap_runner_queue_wait_seconds_total",
	} {
		if first.Families[fam] == nil {
			t.Errorf("family %s missing from exposition", fam)
		}
	}

	// Every serving tier is registered eagerly, so dashboards see the
	// whole lifecycle before the first request of each tier.
	for _, tier := range servingTiers {
		if _, ok := first.Value(tierServedName, metrics.Labels{"tier": tier}); !ok {
			t.Errorf("%s{tier=%q} missing from exposition", tierServedName, tier)
		}
	}
	if v, ok := first.Value(tierServedName, metrics.Labels{"tier": TierStatic}); !ok || v < 1 {
		t.Errorf("tier_served_total{static} = %g, %v; want >= 1", v, ok)
	}

	// The cluster families are registered eagerly even on this
	// single-node server, one peer-error series per operation.
	for _, op := range clusterPeerOps {
		if _, ok := first.Value("locmapd_cluster_peer_errors_total", metrics.Labels{"op": op}); !ok {
			t.Errorf("cluster_peer_errors_total{op=%q} missing from exposition", op)
		}
	}

	// Every 4xx/405/404 response above must be counted per endpoint.
	for _, probe := range []struct {
		endpoint, code string
	}{
		{"map", "200"}, {"map", "400"}, {"map", "405"}, {"other", "404"},
	} {
		if v, ok := first.Value("locmapd_requests_total", metrics.Labels{"endpoint": probe.endpoint, "code": probe.code}); !ok || v < 1 {
			t.Errorf("requests_total{%s,%s} = %g, %v; want >= 1", probe.endpoint, probe.code, v, ok)
		}
	}

	postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc)) // more traffic between scrapes
	second := scrape(t, ms.URL)

	// Counters must be monotone non-decreasing across scrapes.
	for name, fam := range first.Families {
		if fam.Type != "counter" {
			continue
		}
		after := second.Families[name]
		if after == nil {
			t.Errorf("counter family %s vanished", name)
			continue
		}
		for key, v1 := range fam.Samples {
			if v2, ok := after.Samples[key]; ok && v2 < v1 {
				t.Errorf("counter %s went backwards: %g -> %g", key, v1, v2)
			}
		}
	}
}

func TestSimulateReportsImprovementAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	s, ts := newTestServer(t, Config{})
	req := SimulateRequest{CommonRequest: CommonRequest{Source: triadSrc}}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mr := decodeMapResponse(t, body)
	var sr SimResult
	if err := json.Unmarshal(mr.Plan, &sr); err != nil {
		t.Fatalf("bad sim result: %v", err)
	}
	if sr.DefaultCycles <= 0 || sr.LocmapCycles <= 0 {
		t.Fatalf("non-positive cycle counts: %+v", sr)
	}
	if sr.Plan == nil || len(sr.Plan.Schedule) != 1 {
		t.Fatalf("sim result missing plan")
	}

	// Telemetry: the paper's evaluation quantities, aggregated
	// post-run, must be present and internally consistent.
	tel := sr.Telemetry
	if tel.LLCHitFraction < 0 || tel.LLCHitFraction > 1 || tel.L1HitFraction < 0 || tel.L1HitFraction > 1 {
		t.Errorf("hit fractions out of range: %+v", tel)
	}
	if len(tel.NoCLegs) != 5 {
		t.Fatalf("leg count = %d, want 5", len(tel.NoCLegs))
	}
	var totalPackets uint64
	for _, leg := range tel.NoCLegs {
		totalPackets += leg.Packets
		if leg.Packets > 0 && leg.AvgCycles <= 0 {
			t.Errorf("leg %s: %d packets but avg %g", leg.Leg, leg.Packets, leg.AvgCycles)
		}
	}
	if totalPackets == 0 {
		t.Errorf("no NoC packets recorded for a memory-bound triad")
	}

	// Executed simulations must be observable in the sim histograms;
	// cached replays must not be re-observed.
	if got := s.simCycles.Count(); got != 1 {
		t.Errorf("sim cycles histogram count = %d, want 1", got)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	mr2 := decodeMapResponse(t, body2)
	if !mr2.Cached {
		t.Errorf("repeated simulation not cached")
	}
	if !bytes.Equal(mr.Plan, mr2.Plan) {
		t.Errorf("cached sim result not byte-identical")
	}
	if got := s.simCycles.Count(); got != 1 {
		t.Errorf("cached replay re-observed: histogram count = %d, want 1", got)
	}

	// /v1/map and /v1/simulate must not collide in the cache.
	respM, bodyM := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	if respM.StatusCode != http.StatusOK {
		t.Fatalf("map status %d", respM.StatusCode)
	}
	if mrM := decodeMapResponse(t, bodyM); mrM.Fingerprint == mr.Fingerprint {
		t.Errorf("map and simulate share a fingerprint")
	}
}

func TestSimulateRejectsNegativeTimingIters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"source":"param N = 4","timing_iters":-1}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if eb := decodeErrorResponse(t, buf.Bytes()); eb.Code != ErrInvalidRequest {
		t.Errorf("code = %q, want %q", eb.Code, ErrInvalidRequest)
	}
}

// TestSimulateSpecIncludesTimingIters: two simulations differing only
// in timing_iters compute different cycle counts, so they must never
// share a cache key (while a zero override keys like the default).
func TestSimulateSpecIncludesTimingIters(t *testing.T) {
	base := SimulateRequest{CommonRequest: CommonRequest{Source: triadSrc}}
	fp := func(r SimulateRequest) string {
		sp, err := r.spec("simulate")
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		key, err := sp.Fingerprint()
		if err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		return key
	}
	iters7 := base
	iters7.TimingIters = 7
	iters8 := base
	iters8.TimingIters = 8
	if fp(base) == fp(iters7) {
		t.Errorf("timing_iters=0 and timing_iters=7 share a fingerprint")
	}
	if fp(iters7) == fp(iters8) {
		t.Errorf("timing_iters=7 and timing_iters=8 share a fingerprint")
	}
	repeat := base
	if fp(base) != fp(repeat) {
		t.Errorf("identical simulate requests fingerprint differently")
	}
}

// TestMapperKnobsChangeFingerprint: the fine_mac and intra request
// fields feed the mapper, so they must fragment the cache key.
func TestMapperKnobsChangeFingerprint(t *testing.T) {
	fp := func(r MapRequest) string {
		sp, err := r.spec("map")
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		key, err := sp.Fingerprint()
		if err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		return key
	}
	base := mapReq(triadSrc)
	fine := base
	fine.FineMAC = true
	rr := base
	rr.Intra = "roundrobin"
	random := base
	random.Intra = "random" // explicit default must key like the empty string
	if fp(base) == fp(fine) {
		t.Errorf("fine_mac did not change the fingerprint")
	}
	if fp(base) == fp(rr) {
		t.Errorf("intra=roundrobin did not change the fingerprint")
	}
	if fp(base) != fp(random) {
		t.Errorf("intra=random keys differently from the default")
	}
}

// TestCommonSpecCannotDrift: MapRequest and SimulateRequest derive
// their specs from the one embedded CommonRequest, so identical
// shared fields must produce identical spec ingredients (only Kind
// and TimingIters may differ).
func TestCommonSpecCannotDrift(t *testing.T) {
	common := CommonRequest{Source: triadSrc, Seed: 9, FineMAC: true, Intra: "roundrobin", CMEAccuracy: 0.5}
	m := MapRequest{CommonRequest: common}
	sm := SimulateRequest{CommonRequest: common}
	specM, err := m.spec("x")
	if err != nil {
		t.Fatalf("map spec: %v", err)
	}
	specS, err := sm.spec("x")
	if err != nil {
		t.Fatalf("simulate spec: %v", err)
	}
	fpM, err := specM.Fingerprint()
	if err != nil {
		t.Fatalf("map fingerprint: %v", err)
	}
	fpS, err := specS.Fingerprint()
	if err != nil {
		t.Fatalf("simulate fingerprint: %v", err)
	}
	if fpM != fpS {
		t.Errorf("shared fields produced different specs:\n%+v\n%+v", specM, specS)
	}
}

// TestTimedOutJobWarmsCache: a job that outlives the request timeout
// still finishes on its worker and caches its payload, so the
// client's retry is a cache hit instead of another doomed recompute.
func TestTimedOutJobWarmsCache(t *testing.T) {
	s, err := New(Config{Workers: 1, RequestTimeout: 20 * time.Millisecond,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release := make(chan struct{})
	payload := []byte(`{"slow":true}`)
	_, apiErr := s.runJob(context.Background(), "slow-key", TierStatic, func() ([]byte, error) {
		<-release
		return payload, nil
	})
	if apiErr == nil || apiErr.status != http.StatusGatewayTimeout || apiErr.code != ErrTimeout {
		t.Fatalf("runJob = %+v; want 504 timeout", apiErr)
	}
	if _, ok := s.cache.Get("slow-key"); ok {
		t.Fatalf("cache populated before the job finished")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := s.cache.Get("slow-key"); ok {
			if !bytes.Equal(got, payload) {
				t.Fatalf("cached payload = %q, want %q", got, payload)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed-out job never warmed the cache")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatsEndpoint: the snapshot counts every response — including
// the 400 — so /v1/stats agrees with the middleware counters.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	postJSON(t, ts.URL+"/v1/map", mapReq("")) // 400

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if snap.Requests != 3 {
		t.Errorf("requests = %d, want 3", snap.Requests)
	}
	if snap.Errors != 1 {
		t.Errorf("errors = %d, want 1", snap.Errors)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.Workers != 3 {
		t.Errorf("workers = %d, want 3", snap.Workers)
	}
	if snap.LatencyCount != 3 || snap.LatencyP99Ms < snap.LatencyP50Ms {
		t.Errorf("latency snapshot inconsistent: %+v", snap)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if !strings.Contains(body.String(), "ok") {
		t.Errorf("body = %q", body.String())
	}
}

// TestProbesAllowHead: load balancers probe liveness/readiness with
// HEAD, so /healthz and /readyz must answer HEAD like GET (the
// method-qualified GET routes match HEAD too; this pins the contract).
func TestProbesAllowHead(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		req, _ := http.NewRequest(http.MethodHead, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("HEAD %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: status = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestReadyz: ready when idle, 503 not_ready once the batch queue
// fills past the watermark, ready again after the queue drains.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueLimit: 2, ReadyWatermark: 0.5})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz status = %d, want 200", resp.StatusCode)
	}

	// Saturate the sync pool instead of racing the batch workers: the
	// probe must flip to 503 while both workers are busy.
	s.inflight.Add(2)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	s.inflight.Add(-2)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz status = %d, want 503: %s", resp.StatusCode, body.String())
	}
	if eb := decodeErrorResponse(t, body.Bytes()); eb.Code != ErrNotReady {
		t.Errorf("code = %q, want %q", eb.Code, ErrNotReady)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("drained readyz status = %d, want 200", resp.StatusCode)
	}
}

func TestRequestTimeout(t *testing.T) {
	// One worker, held hostage by a goroutine, forces the queued
	// request to time out waiting for a slot.
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	s.sem <- struct{}{} // occupy the only worker slot
	defer func() { <-s.sem }()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if eb := decodeErrorResponse(t, body); eb.Code != ErrOverloaded {
		t.Errorf("code = %q, want %q", eb.Code, ErrOverloaded)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("rejected after %v, before the timeout", elapsed)
	}
	if s.Snapshot().Rejects != 1 {
		t.Errorf("rejects = %d, want 1", s.Snapshot().Rejects)
	}
	if s.rejectsTotal.Value() != 1 {
		t.Errorf("rejects counter = %d, want 1", s.rejectsTotal.Value())
	}
}

func TestBuildTargetValidation(t *testing.T) {
	tests := []struct {
		mesh, regions, llc string
		ok                 bool
	}{
		{"", "", "", true},
		{"6x6", "3x3", "private", true},
		{"8x8", "4x4", "shared", true},
		{"6by6", "3x3", "", false},
		{"0x6", "3x3", "", false},
		{"6x6", "4x4", "", false}, // 4 doesn't divide 6
		{"6x6", "3x3", "l4", false},
		{"-2x6", "3x3", "", false},
	}
	for _, tc := range tests {
		_, err := BuildTarget(tc.mesh, tc.regions, tc.llc)
		if (err == nil) != tc.ok {
			t.Errorf("BuildTarget(%q,%q,%q) err=%v, want ok=%v", tc.mesh, tc.regions, tc.llc, err, tc.ok)
		}
	}
}
