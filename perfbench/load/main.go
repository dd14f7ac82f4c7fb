// Command load is the locmapd end-to-end benchmark. It starts the
// locmapd binary it is given as a child process, drives one named
// workload over loopback HTTP, checks every response, and prints the
// workload's metrics; the last stdout line is one JSON object.
//
//	load -locmapd BIN -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 1 it also runs the traced in-process replay (-tracer)
// and reports per-layer metrics instead of end-to-end ones. -record
// regenerates the reference data of simulated statistics instead.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"locmap/perfbench/gen"
)

// env is one benchmark run.
type env struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	locmapd  string
	runDir   string
	ref      *gen.Reference
	res      *result
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name: "+strings.Join(gen.Workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed-phase length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	locmapd := flag.String("locmapd", "", "locmapd binary under test")
	tracer := flag.String("tracer", "", "traced-replay binary (required with -trace 1)")
	work := flag.String("workdir", ".bench_build", "directory for server state and run records")
	record := flag.String("record", "", "write reference data to this file instead of benchmarking")
	flag.Parse()
	// Fewer generator collections, fewer generator stalls in the
	// measured latencies; the generator's heap stays small anyway.
	debug.SetGCPercent(400)
	if *locmapd == "" {
		return fmt.Errorf("-locmapd is required")
	}
	ref, err := gen.LoadReference()
	if err != nil {
		return err
	}
	e := &env{
		ctx:      context.Background(),
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		locmapd:  *locmapd,
		runDir:   filepath.Join(*work, "run"),
		ref:      ref,
		res:      newResult(),
	}
	if *record != "" {
		return e.record(*record)
	}
	if e.trace && *tracer == "" {
		return fmt.Errorf("-tracer is required with -trace 1")
	}
	var runWorkload func() error
	switch e.workload {
	case gen.HotMap:
		runWorkload = e.runHotMap
	case gen.ColdSimulate:
		runWorkload = e.runColdSimulate
	case gen.FastTier:
		runWorkload = e.runFastTier
	case gen.OptimizeSessions:
		runWorkload = e.runOptimizeSessions
	default:
		return fmt.Errorf("unknown workload %q (want one of %s)", e.workload, strings.Join(gen.Workloads, ", "))
	}
	if e.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	ctx := collectContext(e)
	if err := runWorkload(); err != nil {
		return err
	}
	if e.res.lag != nil {
		if why := e.res.lag.invalid(); why != "" {
			return fmt.Errorf("run invalid: %s", why)
		}
	}
	metrics := map[string]float64{}
	var list []gen.Metric
	if e.trace {
		tr, err := e.runTracer(*tracer)
		if err != nil {
			return err
		}
		for k, v := range tr.Layers {
			e.res.layers[k] = v
		}
		e.res.t.merge(tr.Attempted, tr.Failed, tr.Failures)
		if hit, ok := tr.Layers["server.hit_us_p50"]; ok && hit > 0 && e.workload == gen.HotMap {
			e.res.layers["server.transport_us_p50"] = e.res.e2e["latency_p50_ms"]*1000 - hit
		}
		list = gen.PerLayer
		for _, m := range list {
			metrics[m.Name] = e.res.layers[m.Name]
		}
	} else {
		list = gen.EndToEnd
		for _, m := range list {
			metrics[m.Name] = e.res.e2e[m.Name]
		}
	}
	return e.report(ctx, list, metrics)
}

// runContext is the host and run context recorded with every run.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

func collectContext(e *env) runContext {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return runContext{
		Workload:   e.workload,
		Seed:       e.seed,
		Seconds:    e.seconds,
		Trace:      e.trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// finite maps a metric the run could not measure to 0 for the JSON
// line; the human-readable lines still say it was not measured.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines, writes the run record, and
// prints the JSON result line last.
func (e *env) report(ctx runContext, list []gen.Metric, metrics map[string]float64) error {
	r := e.res
	fmt.Printf("context: workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		ctx.Workload, ctx.Seed, ctx.Seconds, ctx.Trace, ctx.Nproc, ctx.GOMAXPROCS, ctx.CPU, ctx.GoVersion, ctx.Commit)
	if r.lag != nil {
		fmt.Printf("open loop: offered %.1f/s achieved %.1f/s, generator lag p99 %.3f ms max %.3f ms over %d sends\n",
			r.lag.offered, r.lag.achieved, r.lag.p99ms, r.lag.maxms, r.lag.n)
	}
	out := map[string]metricOut{}
	for _, m := range list {
		v := metrics[m.Name]
		note := ""
		if math.IsNaN(v) || !m.Exercises(e.workload) {
			note = "  (not exercised by this workload)"
		}
		fmt.Printf("metric %s = %.6g %s%s\n", m.Name, finite(v), m.Unit, note)
		out[m.Name] = metricOut{finite(v), m.Unit}
	}
	if !e.trace {
		for _, m := range r.extra {
			fmt.Printf("metric %s = %.6g %s\n", m.name, finite(m.value), m.unit)
		}
	}
	errRatio := float64(r.t.failed) / float64(max(r.t.attempted, 1))
	fmt.Printf("metric error_ratio = %.6g ratio (%d failed of %d attempted)\n", errRatio, r.t.failed, r.t.attempted)
	for _, p := range r.props {
		fmt.Printf("property %s = %.6g %s\n", p.name, finite(p.value), p.unit)
	}
	for reason, n := range r.t.reasons {
		fmt.Printf("failure %q x%d\n", reason, n)
	}
	for _, ex := range r.t.examples {
		fmt.Printf("failure example: %s\n", ex)
	}
	if err := e.writeRecord(ctx, out); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.t.failed == 0,
		"attempted": max(r.t.attempted, 1),
		"failed":    r.t.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord stores the run's full record under the work directory.
func (e *env) writeRecord(ctx runContext, metrics map[string]metricOut) error {
	r := e.res
	rec := map[string]any{"context": ctx, "metrics": metrics}
	extra := map[string]any{}
	for _, m := range r.extra {
		extra[m.name] = metricOut{finite(m.value), m.unit}
	}
	props := map[string]any{}
	for _, p := range r.props {
		props[p.name] = metricOut{finite(p.value), p.unit}
	}
	rec["workload_metrics"] = extra
	rec["latency_samples_ms"] = r.latencies
	rec["window_series"] = r.series
	rec["properties"] = props
	rec["attempted"], rec["failed"], rec["failures"] = r.t.attempted, r.t.failed, r.t.reasons
	if r.lag != nil {
		rec["open_loop"] = map[string]float64{
			"offered_rps": r.lag.offered, "achieved_rps": r.lag.achieved,
			"lag_p99_ms": r.lag.p99ms, "lag_max_ms": r.lag.maxms,
		}
	}
	dir := filepath.Join(filepath.Dir(e.runDir), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", e.workload, e.seed, e.trace, time.Now().UnixNano())
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// stopServer ends the timed server, reporting a failure if it does not
// shut down cleanly.
func (e *env) stopServer(srv *server, c *client) {
	c.close()
	if err := srv.stop(); err != nil {
		e.res.t.fail("server shutdown", err)
	}
}

// scraper samples /metrics at a fixed period during a traced run.
type scraper struct {
	url        string
	stopc      chan struct{}
	done       chan struct{}
	mu         sync.Mutex
	inflight   float64
	background float64
}

const scrapePeriod = 100 * time.Millisecond

// startScraper starts the periodic scrape on traced runs only, so the
// untraced runs measure the server undisturbed.
func (e *env) startScraper(srv *server) *scraper {
	s := &scraper{url: srv.metrics, stopc: make(chan struct{}), done: make(chan struct{})}
	if !e.trace {
		close(s.done)
		return s
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(scrapePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
			fam, _, _, err := scrape(s.url)
			if err != nil {
				continue
			}
			s.mu.Lock()
			s.inflight = math.Max(s.inflight, fam["locmapd_worker_inflight_jobs"])
			s.background = math.Max(s.background, fam[`locmapd_jobqueue_depth{priority="background"}`])
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *scraper) stop(r *result) {
	select {
	case <-s.done:
	default:
		close(s.stopc)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.layers["server.inflight_max"] = s.inflight
	r.layers["jobqueue.background_depth_max"] = s.background
}

// scrape fetches one exposition and returns its samples by series, its
// size in bytes and how long it took.
func scrape(url string) (map[string]float64, int, time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fam := map[string]float64{}
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n += len(line) + 1
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			fam[line[:i]] = v
		}
	}
	return fam, n, time.Since(t0), sc.Err()
}

// sumFamily sums every series of one metric family.
func sumFamily(fam map[string]float64, name string) float64 {
	s := 0.0
	for k, v := range fam {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// serverProps reads the end-of-run scrape: verify drops and dedup
// counts as workload properties, and on traced runs the exposition
// size, scrape time and the verify jobs' queue wait.
func (e *env) serverProps(srv *server, c *client) error {
	r := e.res
	fam, size, took, err := scrape(srv.metrics)
	if err != nil {
		return fmt.Errorf("final scrape: %w", err)
	}
	r.prop("verify_dropped", sumFamily(fam, "locmapd_verify_dropped_total"), "count")
	r.prop("remap_dropped", sumFamily(fam, "locmapd_remap_dropped_total"), "count")
	dedup := sumFamily(fam, "locmapd_jobqueue_dedup_total")
	r.prop("jobqueue_dedup", dedup, "count")
	if !e.trace {
		return nil
	}
	r.layers["metrics.exposition_bytes"] = float64(size)
	r.layers["metrics.scrape_ms"] = ms(took)
	jobs, err := e.listJobs(c)
	if err != nil {
		return err
	}
	var wait samples
	for _, j := range jobs {
		if j.Kind == "verify" && j.StartedAt != nil {
			wait.add(ms(j.StartedAt.Sub(j.SubmittedAt)))
		}
	}
	r.layers["jobqueue.verify_wait_ms_p50"] = finite(gen.Median(wait.values()))
	if len(jobs) > 0 {
		r.layers["jobqueue.dedup_ratio"] = dedup / float64(len(jobs))
	}
	return nil
}

// tracerOut is the traced replay's JSON result.
type tracerOut struct {
	Layers    map[string]float64 `json:"layers"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures"`
}

// runTracer runs the traced in-process replay of the same generated
// requests and decodes its last output line.
func (e *env) runTracer(bin string) (*tracerOut, error) {
	cmd := exec.Command(bin, "-workload", e.workload, "-seed", strconv.FormatUint(e.seed, 10),
		"-workdir", filepath.Dir(e.runDir))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var tr tracerOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		return nil, fmt.Errorf("traced replay output: %w", err)
	}
	return &tr, nil
}
