package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// client is a keep-alive HTTP client with a bounded connection pool.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, path, nil)
}

func (c *client) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return c.do(ctx, http.MethodPost, path, body)
}

// getJSON fetches path and decodes a 200 answer into out.
func (c *client) getJSON(ctx context.Context, path string, out any) error {
	st, b, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, b)
	}
	return json.Unmarshal(b, out)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// tally counts attempted and failed operations. A failure is any
// error, non-2xx answer, timeout or failed output check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
	examples  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records a failed operation under a short reason.
func (t *tally) fail(reason string, detail any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, fmt.Sprintf("%s: %v", reason, detail))
	}
}

// merge adds another run's counts, e.g. the traced replay's.
func (t *tally) merge(attempted, failed int, failures []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	for _, f := range failures {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons["traced replay: "+f]++
	}
}

// check records one operation as ok, or failed with the first problem.
func (t *tally) check(problems []string) bool {
	if len(problems) == 0 {
		t.ok()
		return true
	}
	t.fail(problems[0], strings.Join(problems, "; "))
	return false
}

// samples is a mutex-guarded list of observations.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// tailQuantile is the Harrell–Davis estimate of the q-quantile: a
// Beta-weighted mean of all order statistics instead of the one or two
// nearest ranks, so a tail quantile of a few hundred samples does not
// jump with the last few of them. NaN when v is empty.
func tailQuantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(float64(i)/float64(n), a, b)
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(1-x, b, a)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log(1-x)) / a
	// Lentz's method for the continued fraction.
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for m := 0; m <= 300; m++ {
		var num float64
		switch {
		case m == 0:
			num = 1
		case m%2 == 0:
			k := float64(m / 2)
			num = k * (b - k) * x / ((a + 2*k - 1) * (a + 2*k))
		default:
			k := float64((m - 1) / 2)
			num = -(a + k) * (a + b + k) * x / ((a + 2*k) * (a + 2*k + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < 1e-12 {
			break
		}
	}
	return front * (f - 1)
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
