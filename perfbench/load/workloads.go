package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"locmap/perfbench/gen"
)

// conns is the client connection bound: nproc on the reference host.
const conns = 2

// setupReps is how many times each run sets up a fresh server; setup_s
// is their median and the last one serves the timed phase.
const setupReps = 3

// result is one workload run's measurements.
type result struct {
	e2e    map[string]float64 // end-to-end metrics by name
	extra  []named            // workload-specific end-to-end metrics
	props  []named            // measured workload properties
	layers map[string]float64 // per-layer metrics measured on the run
	lag    *lagReport         // open-loop generator lag, if any
	t      tally

	// latencies are the timed latency samples in ms, kept for the run
	// record.
	latencies []float64
	// series are per-window measurements by name, kept for the run
	// record.
	series map[string][]float64
}

// named is a printed measurement with its unit.
type named struct {
	name  string
	value float64
	unit  string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, series: map[string][]float64{}}
}

func (r *result) prop(name string, v float64, unit string) {
	r.props = append(r.props, named{name, v, unit})
}

func (r *result) extraMetric(name string, v float64, unit string) {
	r.extra = append(r.extra, named{name, v, unit})
}

// latencyMetrics records a latency sample: its median and 90th
// percentile as end-to-end metrics, its 99th percentile as a printed
// workload metric (steady only on hot-map's sample sizes), and the
// sample count. The tails are Harrell–Davis estimates.
func (r *result) latencyMetrics(v []float64) {
	r.latencies = v
	r.e2e["latency_p50_ms"] = gen.Quantile(v, 0.5)
	r.e2e["latency_p90_ms"] = tailQuantile(v, 0.9)
	r.extraMetric("latency_p99_ms", tailQuantile(v, 0.99), "ms")
	r.prop("latency_samples", float64(len(v)), "count")
}

// setup starts setupReps fresh servers in turn, each up to the end of
// its warm-up, and keeps the last one running.
func (e *env) setup(flags []string, warm func(*client) error) (*server, *client, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		srv, err := startServer(e.locmapd, filepath.Join(e.runDir, fmt.Sprintf("server%d", i)), flags)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(srv.base, conns)
		fail := func(err error) (*server, *client, error) {
			c.close()
			_ = srv.stop()
			return nil, nil, err
		}
		if err := srv.waitReady(e.ctx, c); err != nil {
			return fail(err)
		}
		if err := warm(c); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			e.res.e2e["setup_s"] = gen.Median(times)
			return srv, c, nil
		}
		c.close()
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// openConns opens the client's keep-alive connections.
func (e *env) openConns(c *client) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := c.get(e.ctx, "/healthz")
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("healthz status %d", st)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timed brackets the timed phase: server CPU, completed operations and
// the host's CPU time stolen by other guests.
type timed struct {
	srv    *server
	cpu0   float64
	t0     time.Time
	steal0 hostCPU
}

func begin(srv *server) (*timed, error) {
	cpu, err := srv.cpuMs()
	return &timed{srv: srv, cpu0: cpu, t0: time.Now(), steal0: readHostCPU()}, err
}

// finish records server_cpu_ms_per_op and peak_rss_mb.
func (tp *timed) finish(r *result, ops int) error {
	cpu, err := tp.srv.cpuMs()
	if err != nil {
		return err
	}
	rss, err := tp.srv.peakRSSMB()
	if err != nil {
		return err
	}
	if ops == 0 {
		return fmt.Errorf("no operation completed in the timed phase")
	}
	r.e2e["server_cpu_ms_per_op"] = (cpu - tp.cpu0) / float64(ops)
	r.e2e["peak_rss_mb"] = rss
	if h := readHostCPU(); h.total > tp.steal0.total {
		r.prop("host_steal_pct", 100*float64(h.steal-tp.steal0.steal)/float64(h.total-tp.steal0.total), "%")
	}
	r.prop("server_cpu_ms", cpu-tp.cpu0, "ms")
	r.prop("timed_ops", float64(ops), "count")
	return nil
}

// lagReport is an open loop's offered vs achieved rate and how late the
// generator dispatched requests.
type lagReport struct {
	offered, achieved float64
	p99ms, maxms      float64
	n                 int
}

// Generator lag limits: a run whose dispatcher sent below minAchieved
// of the offered rate, was late at p99 by more than maxLagP99ms or one
// inter-arrival gap (whichever is longer), or was ever late by more
// than maxLagMaxms, is invalid.
const (
	minAchieved = 0.98
	maxLagP99ms = 10
	maxLagMaxms = 1000
)

func (l *lagReport) invalid() string {
	p99Limit := math.Max(maxLagP99ms, 1000/l.offered)
	if l.achieved < minAchieved*l.offered || l.p99ms > p99Limit || l.maxms > maxLagMaxms {
		return fmt.Sprintf("generator fell behind: achieved %.1f of %.1f/s, dispatch lag p99 %.2f ms, max %.2f ms",
			l.achieved, l.offered, l.p99ms, l.maxms)
	}
	return ""
}

// openLoop dispatches n requests at rate per second to conns senders.
// send receives the request index and its due time.
func openLoop(ctx context.Context, rate float64, n int, send func(i int, due time.Time)) *lagReport {
	work := make(chan int, n) // sized to the number of sends
	due := make([]time.Time, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				send(i, due[i])
			}
		}()
	}
	lags := make([]float64, 0, n)
	t0 := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due[i] = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, ms(time.Since(due[i])))
		work <- i
	}
	close(work)
	sent := time.Since(t0)
	wg.Wait()
	return &lagReport{
		offered:  rate,
		achieved: float64(len(lags)) / sent.Seconds(),
		p99ms:    gen.Quantile(lags, 0.99),
		maxms:    maxOf(lags),
		n:        len(lags),
	}
}

// closedLoop runs clients back to back until the deadline and returns
// the elapsed time.
func closedLoop(dur time.Duration, clients int, op func()) time.Duration {
	deadline := time.Now().Add(dur)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op()
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// lockstep is a closed loop of clients that move in steps: each step
// sends the sequence's next clients requests at once and waits for all
// of them, so which requests overlap in flight is fixed by the
// sequence, not by timing. Past the deadline it still finishes the
// current multiple of quantum requests, so a sequence built in rounds
// is measured in whole rounds. It returns the elapsed time.
func lockstep(dur time.Duration, clients, quantum int, op func(i int)) time.Duration {
	t0 := time.Now()
	deadline := t0.Add(dur)
	for i := 0; i%quantum != 0 || time.Now().Before(deadline); i += clients {
		var wg sync.WaitGroup
		for j := 0; j < clients; j++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				op(k)
			}(i + j)
		}
		wg.Wait()
	}
	return time.Since(t0)
}

// postPlan sends a plan request and decodes the envelope. Any error or
// non-200 answer is returned as a failure reason.
func postPlan(ctx context.Context, c *client, path string, body []byte) (*envelope, string) {
	st, b, err := c.post(ctx, path, body)
	if err != nil {
		return nil, "transport: " + err.Error()
	}
	if st != http.StatusOK {
		return nil, fmt.Sprintf("status %d: %.200s", st, b)
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, "undecodable response: " + err.Error()
	}
	return &env, ""
}

// ---------------------------------------------------------------- hot-map

// hotClients is how many clients hot-map's closed loop runs. Two
// clients on two CPUs swung from window to window (3500–5300 req/s
// within one run) as the scheduler moved the generator's and the
// server's threads between the CPUs. Over eight runs alternating 1 s
// windows of one and of two clients, the runs' median throughputs
// spread 0.03 (interquartile range over median) with one client and
// 0.07 with two.
const hotClients = 1

// hotWindow is the length of one window of hot-map's closed loop.
const hotWindow = time.Second

// hotEntry is one warmed catalog entry with the plan bytes every later
// hit must return.
type hotEntry struct {
	body []byte
	id   gen.Body
	plan [32]byte
}

func (e *env) runHotMap() error {
	r := e.res
	cats := gen.HotCatalogs(e.seed)
	mapE := make([]hotEntry, len(cats.Map))
	estE := make([]hotEntry, len(cats.Estimate))
	for i, b := range cats.Map {
		mapE[i] = hotEntry{body: mustJSON(b.Request()), id: b}
	}
	for i, b := range cats.Estimate {
		estE[i] = hotEntry{body: mustJSON(b.Request()), id: b}
	}
	warm := func(c *client) error { return e.warmHot(c, mapE, estE) }
	srv, c, err := e.setup(nil, warm)
	if err != nil {
		return err
	}
	defer e.stopServer(srv, c)

	// Half the run is the open loop; the other half is the closed loop,
	// cut into windows.
	half := time.Duration(e.seconds / 2 * float64(time.Second))
	n := int(gen.HotRate * half.Seconds())
	windows := max(1, int(math.Round(half.Seconds()/hotWindow.Seconds())))
	seq := gen.HotSequence(e.seed, cats, n+200000)
	var hits, sent atomic.Int64
	do := func(i int) (time.Time, bool) {
		q := seq[i%len(seq)]
		ent, path := &mapE[q.Index], "/v1/map"
		if q.Estimate {
			ent, path = &estE[q.Index], "/v1/estimate"
		}
		sent.Add(1)
		env, fail := postPlan(e.ctx, c, path, ent.body)
		done := time.Now()
		if fail != "" {
			r.t.fail("request failed", fail)
			return done, false
		}
		if env.Cached {
			hits.Add(1)
		}
		switch {
		case !env.Cached:
			r.t.fail("timed request missed the plan cache", ent.id.ID())
		case planHash(env.Plan) != ent.plan:
			r.t.fail("cached plan differs from the warmed plan", ent.id.ID())
		default:
			r.t.ok()
			return done, true
		}
		return done, false
	}
	scr := e.startScraper(srv)
	tp, err := begin(srv)
	if err != nil {
		return err
	}
	var lat samples
	var okOpen atomic.Int64
	lag := openLoop(e.ctx, gen.HotRate, n, func(i int, due time.Time) {
		done, ok := do(i)
		if ok {
			okOpen.Add(1)
			lat.add(ms(done.Sub(due)))
		}
	})
	var okClosed, next atomic.Int64
	var rates, cpuPerOp []float64
	for w := 0; w < windows; w++ {
		cpu0, err := srv.cpuMs()
		if err != nil {
			return err
		}
		ok0 := okClosed.Load()
		elapsed := closedLoop(hotWindow, hotClients, func() {
			if _, ok := do(n + int(next.Add(1)-1)); ok {
				okClosed.Add(1)
			}
		})
		cpu1, err := srv.cpuMs()
		if err != nil {
			return err
		}
		if ops := okClosed.Load() - ok0; ops > 0 {
			rates = append(rates, float64(ops)/elapsed.Seconds())
			cpuPerOp = append(cpuPerOp, (cpu1-cpu0)/float64(ops))
		}
	}
	if err := tp.finish(r, int(okOpen.Load()+okClosed.Load())); err != nil {
		return err
	}
	scr.stop(r)
	r.lag = lag
	r.latencyMetrics(lat.values())
	// Throughput and CPU per request are medians over the closed loop's
	// windows, so a burst of contention from elsewhere on the host moves
	// a few windows, not the figure.
	r.prop("server_cpu_ms_per_op_whole_run", r.e2e["server_cpu_ms_per_op"], "ms")
	r.e2e["throughput_rps"] = gen.Median(rates)
	r.e2e["server_cpu_ms_per_op"] = gen.Median(cpuPerOp)
	r.prop("closed_loop_windows", float64(len(rates)), "count")
	r.series["throughput_rps"], r.series["server_cpu_ms_per_op"] = rates, cpuPerOp
	r.prop("plancache_hit_share", float64(hits.Load())/float64(max(sent.Load(), 1)), "ratio")
	estShare := 0.0
	for _, q := range seq[:n] {
		if q.Estimate {
			estShare++
		}
	}
	r.prop("estimate_share", estShare/float64(n), "ratio")
	r.prop("catalog_bodies", float64(len(mapE)+len(estE)), "count")
	r.layers["plancache.hit_ratio"] = float64(hits.Load()) / float64(max(sent.Load(), 1))
	return e.serverProps(srv, c)
}

// warmHot fills both catalogs, checks every answer, waits for every
// estimate entry's background verification, and records the plan
// bytes each later hit must return.
func (e *env) warmHot(c *client, mapE, estE []hotEntry) error {
	type job struct {
		ent  *hotEntry
		path string
	}
	var jobs []job
	for i := range mapE {
		jobs = append(jobs, job{&mapE[i], "/v1/map"})
	}
	for i := range estE {
		jobs = append(jobs, job{&estE[i], "/v1/estimate"})
	}
	errs := make(chan error, len(jobs)) // one slot per job
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				j := jobs[k]
				env, fail := postPlan(e.ctx, c, j.path, j.ent.body)
				if fail != "" {
					errs <- fmt.Errorf("%s %s: %s", j.path, j.ent.id.ID(), fail)
					continue
				}
				var probs []string
				if j.path == "/v1/map" {
					probs = checkMapPlan(j.ent.id, env.Plan)
				} else {
					_, probs = checkEstimate(j.ent.id, env.Plan, e.ref)
				}
				if len(probs) > 0 {
					errs <- fmt.Errorf("%s %s: %s", j.path, j.ent.id.ID(), probs[0])
				}
				j.ent.plan = planHash(env.Plan)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	// Every estimate entry must reach a verified tier before the timed
	// phase, or its hits would keep re-checking the verify queue.
	deadline := time.Now().Add(60 * time.Second)
	for i := range estE {
		for {
			env, fail := postPlan(e.ctx, c, "/v1/estimate", estE[i].body)
			if fail != "" {
				return fmt.Errorf("estimate poll: %s", fail)
			}
			if env.Tier != "estimate" {
				if _, probs := checkEstimate(estE[i].id, env.Plan, e.ref); len(probs) > 0 {
					return fmt.Errorf("estimate %s: %s", estE[i].id.ID(), probs[0])
				}
				estE[i].plan = planHash(env.Plan)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("estimate %s never verified", estE[i].id.ID())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// ----------------------------------------------------------- cold-simulate

func (e *env) runColdSimulate() error {
	r := e.res
	srv, c, err := e.setup(nil, e.openConns)
	if err != nil {
		return err
	}
	defer e.stopServer(srv, c)

	seq := gen.ColdSequence(e.seed, 300)
	bodies := make(map[gen.Body][]byte)
	for _, q := range seq {
		if _, ok := bodies[q.Body]; !ok {
			bodies[q.Body] = mustJSON(q.Body.Request())
		}
	}
	var (
		mu       sync.Mutex
		inflight = map[gen.Body]int{}
	)
	var lat, hitLat samples
	var okN, hits, dupInflight, regular, sentN atomic.Int64
	mix := map[string]int{}
	scr := e.startScraper(srv)
	tp, err := begin(srv)
	if err != nil {
		return err
	}
	elapsed := lockstep(time.Duration(e.seconds*float64(time.Second)), gen.ColdClients, gen.ColdRound, func(i int) {
		q := seq[i%len(seq)]
		mu.Lock()
		if inflight[q.Body] > 0 {
			dupInflight.Add(1)
		}
		inflight[q.Body]++
		mix[q.Body.Mesh+"/"+q.Body.LLC]++
		mu.Unlock()
		sentN.Add(1)
		if q.Body.Regular() {
			regular.Add(1)
		}
		t0 := time.Now()
		env, fail := postPlan(e.ctx, c, "/v1/simulate", bodies[q.Body])
		d := time.Since(t0)
		mu.Lock()
		inflight[q.Body]--
		mu.Unlock()
		if fail != "" {
			r.t.fail("request failed", fail)
			return
		}
		if r.t.check(checkSimulate(q.Body, env, e.ref)) {
			okN.Add(1)
			// Latency is the executed requests'; hits are hot-map's.
			if env.Cached {
				hits.Add(1)
				hitLat.add(ms(d))
			} else {
				lat.add(ms(d))
			}
		}
	})
	if err := tp.finish(r, int(okN.Load())); err != nil {
		return err
	}
	scr.stop(r)
	sent := float64(max(sentN.Load(), 1))
	v := lat.values()
	r.latencyMetrics(v)
	r.e2e["throughput_rps"] = float64(okN.Load()) / elapsed.Seconds()
	r.prop("hit_latency_p50_ms", gen.Median(hitLat.values()), "ms")
	r.prop("plancache_hit_share", float64(hits.Load())/sent, "ratio")
	r.prop("inflight_duplicate_share", float64(dupInflight.Load())/sent, "ratio")
	r.prop("regular_share", float64(regular.Load())/sent, "ratio")
	for _, k := range []string{"6x6/private", "6x6/shared", "12x12/private", "12x12/shared"} {
		r.prop("mix."+k, float64(mix[k])/sent, "ratio")
	}
	r.layers["plancache.hit_ratio"] = float64(hits.Load()) / sent
	return e.serverProps(srv, c)
}

// --------------------------------------------------------------- fast-tier

// drainDeadline bounds how long fast-tier waits after its last request
// for outstanding verifications.
const drainDeadline = 10 * time.Second

func (e *env) runFastTier() error {
	r := e.res
	srv, c, err := e.setup([]string{"-fast-tier"}, e.openConns)
	if err != nil {
		return err
	}
	defer e.stopServer(srv, c)

	seq := gen.FastSequence(e.seed)
	n := int(gen.FastRate * e.seconds)
	if n > len(seq) {
		n = len(seq) // every request must carry a fresh fingerprint
	}
	var lat, verify samples
	var okN, unverified, cachedCold, regular, pollsN, pollHits atomic.Int64
	var polls sync.WaitGroup
	var lastMu sync.Mutex
	var lastVerified time.Time
	stopPolls := make(chan struct{})
	scr := e.startScraper(srv)
	tp, err := begin(srv)
	if err != nil {
		return err
	}
	lag := openLoop(e.ctx, gen.FastRate, n, func(i int, due time.Time) {
		b := seq[i]
		body := mustJSON(b.Request())
		if b.Regular() {
			regular.Add(1)
		}
		env, fail := postPlan(e.ctx, c, "/v1/map", body)
		answered := time.Now()
		if fail != "" {
			r.t.fail("request failed", fail)
			return
		}
		if env.Cached {
			cachedCold.Add(1)
		}
		_, probs := checkEstimate(b, env.Plan, e.ref)
		if env.Tier != "estimate" {
			probs = append(probs, "cold answer at tier "+env.Tier)
		}
		if !r.t.check(probs) {
			return
		}
		lat.add(ms(answered.Sub(due)))
		polls.Add(1)
		go func() {
			defer polls.Done()
			for {
				select {
				case <-stopPolls:
					unverified.Add(1)
					r.t.fail("plan still unverified at the drain deadline", b.ID())
					return
				case <-time.After(gen.PollEvery * time.Millisecond):
				}
				pollsN.Add(1)
				env, fail := postPlan(e.ctx, c, "/v1/map", body)
				if fail != "" {
					r.t.fail("poll failed", fail)
					return
				}
				if env.Cached {
					pollHits.Add(1)
				}
				if env.Tier == "estimate" {
					continue
				}
				er, probs := checkEstimate(b, env.Plan, e.ref)
				if len(probs) == 0 && er.Verification == nil {
					probs = append(probs, "upgraded plan without a verification report")
				}
				if r.t.check(probs) {
					okN.Add(1)
					verify.add(time.Since(answered).Seconds())
					lastMu.Lock()
					lastVerified = time.Now()
					lastMu.Unlock()
				}
				return
			}
		}()
	})
	drained := make(chan struct{})
	go func() { polls.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainDeadline):
		close(stopPolls)
		<-drained
	}
	if err := tp.finish(r, int(okN.Load())); err != nil {
		return err
	}
	scr.stop(r)
	r.lag = lag
	v := lat.values()
	r.latencyMetrics(v)
	// Verified plans per second, from the first send to the last
	// upgrade: a slower verifier stretches the tail.
	r.e2e["throughput_rps"] = float64(okN.Load()) / lastVerified.Sub(tp.t0).Seconds()
	vs := verify.values()
	r.extraMetric("verify_p50_s", gen.Median(vs), "s")
	r.extraMetric("unverified_ratio", float64(unverified.Load())/float64(max(len(v), 1)), "ratio")
	r.prop("verify_samples", float64(len(vs)), "count")
	r.prop("cold_cached_share", float64(cachedCold.Load())/float64(n), "ratio")
	r.prop("polls", float64(pollsN.Load()), "count")
	r.layers["plancache.hit_ratio"] = float64(cachedCold.Load()+pollHits.Load()) / float64(n+int(pollsN.Load()))
	r.prop("regular_share", float64(regular.Load())/float64(n), "ratio")
	return e.serverProps(srv, c)
}

// ------------------------------------------------------- optimize-sessions

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	JobID       string          `json:"job_id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Fingerprint string          `json:"fingerprint"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
}

// pollJob polls a job every 10 ms until it is terminal.
func (e *env) pollJob(c *client, id string, limit time.Duration) (*jobStatus, error) {
	deadline := time.Now().Add(limit)
	for {
		var js jobStatus
		if err := c.getJSON(e.ctx, "/v1/jobs/"+id, &js); err != nil {
			return nil, err
		}
		switch js.State {
		case "done", "failed", "cancelled", "expired":
			return &js, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %v", id, js.State, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (e *env) runOptimizeSessions() error {
	r := e.res
	srv, c, err := e.setup([]string{"-remap-interval", "100ms"}, e.openConns)
	if err != nil {
		return err
	}
	defer e.stopServer(srv, c)

	opts := gen.OptimizeSequence(e.seed, 1000)
	targets := gen.ChurnTargets(e.seed, 1000)
	var cycle, jobS, regMs, remapS samples
	var sessions, cycles int
	scr := e.startScraper(srv)
	tp, err := begin(srv)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		t0 := time.Now()
		okOpt := e.optimizeStep(c, opts[k%len(opts)], &jobS)
		okChurn := e.churnStep(c, targets[k%len(targets)], k, &regMs, &remapS)
		sessions += gen.SessionsPerRound
		if okOpt && okChurn {
			cycle.add(ms(time.Since(t0)))
			cycles++
		}
	}
	elapsed := time.Since(tp.t0)
	if err := tp.finish(r, cycles); err != nil {
		return err
	}
	scr.stop(r)
	v := cycle.values()
	r.latencyMetrics(v)
	r.e2e["throughput_rps"] = float64(cycles) / elapsed.Seconds()
	r.extraMetric("job_p50_s", gen.Median(jobS.values()), "s")
	r.extraMetric("register_p50_ms", gen.Median(regMs.values()), "ms")
	r.extraMetric("remap_p50_s", gen.Median(remapS.values()), "s")
	r.prop("optimize_jobs", float64(len(jobS.values())), "count")
	r.prop("sessions_churned", float64(sessions), "count")
	r.prop("remap_samples", float64(len(remapS.values())), "count")
	if err := e.jobRecords(c, r); err != nil {
		return err
	}
	return e.serverProps(srv, c)
}

// optimizeStep submits one optimize job and polls it to completion.
func (e *env) optimizeStep(c *client, b gen.Body, jobS *samples) bool {
	r := e.res
	t0 := time.Now()
	st, raw, err := c.post(e.ctx, "/v1/optimize", mustJSON(b.OptimizeBody()))
	if err != nil || st != http.StatusAccepted {
		r.t.fail("optimize submit failed", fmt.Sprintf("%v status %d %.200s", err, st, raw))
		return false
	}
	var ack struct {
		JobID       string `json:"job_id"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		r.t.fail("optimize ack undecodable", err)
		return false
	}
	js, err := e.pollJob(c, ack.JobID, 60*time.Second)
	if err != nil {
		r.t.fail("optimize poll failed", err)
		return false
	}
	d := time.Since(t0)
	if js.State != "done" {
		r.t.fail("optimize job not done", js.State+" "+js.Error)
		return false
	}
	if !r.t.check(checkOptimize(b, ack.Fingerprint, js.Result, e.ref)) {
		return false
	}
	jobS.add(d.Seconds())
	return true
}

type sessionInfo struct {
	SessionID string `json:"session_id"`
	Epoch     int    `json:"epoch"`
	Tier      string `json:"tier"`
}

type sessionPlan struct {
	Plan struct {
		Epoch          int     `json:"epoch"`
		Tier           string  `json:"tier"`
		PredictedAlpha float64 `json:"predicted_alpha"`
		Cores          []int   `json:"cores"`
	} `json:"plan"`
	Epochs []struct {
		Seq    int    `json:"seq"`
		Reason string `json:"reason"`
		Tier   string `json:"tier"`
	} `json:"epochs"`
}

// checkEpochs checks a session's epoch history: strictly increasing
// sequence numbers, known reasons, cores inside the mesh.
func checkEpochs(p *sessionPlan, cores int) []string {
	for i, ep := range p.Epochs {
		if i > 0 && ep.Seq <= p.Epochs[i-1].Seq {
			return []string{fmt.Sprintf("epoch seq %d after %d", ep.Seq, p.Epochs[i-1].Seq)}
		}
		switch ep.Reason {
		case "register", "drift", "rebalance":
		default:
			return []string{"unknown epoch reason " + ep.Reason}
		}
	}
	if n := len(p.Epochs); n > 0 && p.Plan.Epoch != p.Epochs[n-1].Seq {
		return []string{"live plan epoch differs from the last history entry"}
	}
	for _, c := range p.Plan.Cores {
		if c < 0 || c >= cores {
			return []string{fmt.Sprintf("session core %d outside the mesh", c)}
		}
	}
	return nil
}

// churnStep registers SessionsPerRound sessions on one target, drifts
// each until it remaps, then deletes them.
func (e *env) churnStep(c *client, target gen.Body, round int, regMs, remapS *samples) bool {
	r := e.res
	ok := true
	var ids []string
	for k := 0; k < gen.SessionsPerRound; k++ {
		body := struct {
			gen.Request
			Name string `json:"name"`
		}{target.Request(), fmt.Sprintf("bench-%d-%d-%d", e.seed, round, k)}
		t0 := time.Now()
		st, raw, err := c.post(e.ctx, "/v1/sessions", mustJSON(body))
		d := time.Since(t0)
		if err != nil || st != http.StatusCreated {
			r.t.fail("session register failed", fmt.Sprintf("%v status %d %.200s", err, st, raw))
			ok = false
			continue
		}
		var si sessionInfo
		if err := json.Unmarshal(raw, &si); err != nil || si.SessionID == "" {
			r.t.fail("session register undecodable", err)
			ok = false
			continue
		}
		r.t.ok()
		regMs.add(ms(d))
		ids = append(ids, si.SessionID)
	}
	for _, id := range ids {
		if !e.driftUntilRemap(c, id, target, remapS) {
			ok = false
		}
	}
	for _, id := range ids {
		st, raw, err := c.do(e.ctx, http.MethodDelete, "/v1/sessions/"+id, nil)
		if err != nil || st != http.StatusOK {
			r.t.fail("session delete failed", fmt.Sprintf("%v status %d %.200s", err, st, raw))
			ok = false
			continue
		}
		r.t.ok()
	}
	return ok
}

// driftUntilRemap pushes drifting telemetry to one session until a
// push triggers a remap, then polls the plan until the new epoch is
// live.
func (e *env) driftUntilRemap(c *client, id string, target gen.Body, remapS *samples) bool {
	r := e.res
	var p sessionPlan
	if err := c.getJSON(e.ctx, "/v1/sessions/"+id+"/plan", &p); err != nil {
		r.t.fail("session plan read failed", err)
		return false
	}
	drifts := func(p *sessionPlan) int {
		n := 0
		for _, ep := range p.Epochs {
			if ep.Reason == "drift" {
				n++
			}
		}
		return n
	}
	before := drifts(&p)
	tel := mustJSON(map[string]float64{"alpha": gen.DriftAlpha(p.Plan.PredictedAlpha)})
	deadline := time.Now().Add(10 * time.Second)
	for push := 1; time.Now().Before(deadline); push++ {
		if push%10 == 0 {
			// The server's sweeper may remap the session on the drift
			// already pushed before a push triggers it; that remap
			// counts, but its latency is not the client's to measure.
			var np sessionPlan
			if err := c.getJSON(e.ctx, "/v1/sessions/"+id+"/plan", &np); err != nil {
				r.t.fail("session plan read failed", err)
				return false
			}
			if drifts(&np) > before {
				return r.t.check(checkEpochs(&np, target.Cores()))
			}
		}
		st, raw, err := c.post(e.ctx, "/v1/sessions/"+id+"/telemetry", tel)
		if err != nil || st != http.StatusOK {
			r.t.fail("telemetry push failed", fmt.Sprintf("%v status %d %.200s", err, st, raw))
			return false
		}
		var tr struct {
			RemapTriggered bool `json:"remap_triggered"`
			Epoch          int  `json:"epoch"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			r.t.fail("telemetry response undecodable", err)
			return false
		}
		if !tr.RemapTriggered {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t0 := time.Now()
		for time.Now().Before(deadline) {
			var np sessionPlan
			if err := c.getJSON(e.ctx, "/v1/sessions/"+id+"/plan", &np); err != nil {
				r.t.fail("session plan read failed", err)
				return false
			}
			for _, ep := range np.Epochs {
				if ep.Seq > tr.Epoch && ep.Reason == "drift" {
					probs := checkEpochs(&np, target.Cores())
					if ep.Tier != "verified" && ep.Tier != "refined" {
						probs = append(probs, "drift epoch at tier "+ep.Tier)
					}
					if !r.t.check(probs) {
						return false
					}
					remapS.add(time.Since(t0).Seconds())
					return true
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	r.t.fail("session never remapped", id)
	return false
}

// jobRecords reads the optimize job records for the queue-wait and
// execution split.
func (e *env) jobRecords(c *client, r *result) error {
	jobs, err := e.listJobs(c)
	if err != nil {
		return err
	}
	var wait, exec samples
	for _, j := range jobs {
		if j.Kind != "optimize" || j.StartedAt == nil || j.FinishedAt == nil {
			continue
		}
		wait.add(ms(j.StartedAt.Sub(j.SubmittedAt)))
		exec.add(ms(j.FinishedAt.Sub(*j.StartedAt)))
	}
	r.layers["jobqueue.optimize_wait_ms_p50"] = gen.Median(wait.values())
	r.layers["jobqueue.optimize_exec_ms_p50"] = gen.Median(exec.values())
	return nil
}

// listJobs pages through GET /v1/jobs.
func (e *env) listJobs(c *client) ([]jobStatus, error) {
	var all []jobStatus
	cursor := ""
	for {
		path := "/v1/jobs?limit=500"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var page struct {
			Jobs       []jobStatus `json:"jobs"`
			NextCursor string      `json:"next_cursor"`
		}
		if err := c.getJSON(e.ctx, path, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Jobs...)
		if page.NextCursor == "" {
			return all, nil
		}
		cursor = page.NextCursor
	}
}
