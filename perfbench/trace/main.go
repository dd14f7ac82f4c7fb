// Command trace replays one workload's generated requests in-process,
// through the public functions of each locmap layer, with a span around
// every call. It runs the replay once to warm up, then alternates
// untraced and traced passes, prints the per-layer metrics, each
// layer's self time and the tracing overhead, and writes the spans
// under the work directory. The last stdout line is one JSON object.
//
//	trace -workload NAME -seed N [-workdir DIR]
//	trace -record-accesses FILE
//
// -record-accesses stores the simulated access count of every body in
// the reference data instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"locmap/internal/cache"
	"locmap/internal/cme"
	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/estimate"
	"locmap/internal/inspector"
	"locmap/internal/lang"
	"locmap/internal/placeopt"
	"locmap/internal/plancache"
	"locmap/internal/server"
	"locmap/internal/sim"
	"locmap/internal/tenancy"
	"locmap/internal/topology"

	"locmap/perfbench/gen"
)

// Replay sizes: fixed, so the replayed work and sim.accesses depend on
// the seed alone.
const (
	hotHits       = 3000 // cached /v1/map requests through the handler
	coldBodies    = 32   // one stratified round: every combo once
	fastBodies    = 32
	optBodies     = 8
	churnRounds   = 8
	rescoreRepeat = 5
	ingestSamples = 200
)

// replay is one pass over a workload's requests.
type replay struct {
	t        *tracer
	ref      *gen.Reference
	workdir  string
	attempts int
	failures []string
	accesses uint64
	simNs    float64 // run + inspector span time, for ns per access
	pc       *plancache.Cache
	layers   map[string]float64
}

func (r *replay) check(ok bool, format string, args ...any) {
	r.attempts++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// overheadPairs is how many untraced/traced pass pairs time the
// tracing overhead.
const overheadPairs = 2

func main() {
	workload := flag.String("workload", "", "workload to replay")
	seed := flag.Uint64("seed", 1, "workload seed")
	workdir := flag.String("workdir", ".bench_build", "directory for spans and scratch state")
	recordAccesses := flag.String("record-accesses", "", "write per-body access counts into this reference file")
	flag.Parse()
	if err := run(*workload, *seed, *workdir, *recordAccesses); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench trace:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, workdir, recordAccesses string) error {
	ref, err := gen.LoadReference()
	if err != nil {
		return err
	}
	if recordAccesses != "" {
		return recordAccessCounts(ref, recordAccesses)
	}
	var pass func(*replay, uint64) error
	switch workload {
	case gen.HotMap:
		pass = replayHotMap
	case gen.ColdSimulate:
		pass = replayColdSimulate
	case gen.FastTier:
		pass = replayFastTier
	case gen.OptimizeSessions:
		pass = replayOptimizeSessions
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	newPass := func(on bool) *replay {
		return &replay{t: newTracer(on), ref: ref, workdir: workdir, pc: plancache.New(1024), layers: map[string]float64{}}
	}
	// timed runs one pass after a collection, so that no pass pays for
	// the garbage of the one before it. Every pass's checks count.
	attempts, failures := 0, []string(nil)
	timed := func(on bool) (*replay, time.Duration, error) {
		p := newPass(on)
		runtime.GC()
		t0 := time.Now()
		err := pass(p, seed)
		took := time.Since(t0)
		attempts += p.attempts
		failures = append(failures, p.failures...)
		return p, took, err
	}
	// The first pass pays the process's one-time costs (heap growth,
	// page faults, cold caches) and is not timed. Then untraced and
	// traced passes alternate: one pair differs by a few percent either
	// way, so the overhead is the median (here the mean) over
	// overheadPairs pairs.
	if _, _, err := timed(false); err != nil {
		return err
	}
	var traced *replay
	var overheads []float64
	var plain, withSpans time.Duration
	for k := 0; k < overheadPairs; k++ {
		u, a, err := timed(false)
		if err != nil {
			return err
		}
		// Only the count is kept, so the untraced pass's heap is
		// garbage before the traced pass starts.
		accesses := u.accesses
		t, b, err := timed(true)
		if err != nil {
			return err
		}
		attempts++
		if accesses != t.accesses {
			failures = append(failures, fmt.Sprintf("sim.accesses differs between passes: %d vs %d", accesses, t.accesses))
		}
		overheads = append(overheads, 100*(b.Seconds()-a.Seconds())/a.Seconds())
		traced, plain, withSpans = t, plain+a, withSpans+b
	}

	layers := traced.metrics()
	layers["trace.overhead_pct"] = gen.Median(overheads)
	fmt.Printf("replay: %d pairs, untraced %.3f s, traced %.3f s in all, %d spans per traced pass\n",
		overheadPairs, plain.Seconds(), withSpans.Seconds(), len(traced.t.spans))
	self := traced.t.selfTimes()
	for _, k := range sortedKeys(self) {
		fmt.Printf("self_ms %s = %.3f\n", k, self[k]/1e6)
	}
	spansPath := filepath.Join(workdir, "results", fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	if err := traced.t.write(spansPath); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", spansPath)
	out, err := json.Marshal(map[string]any{
		"layers":    layers,
		"attempted": attempts,
		"failed":    len(failures),
		"failures":  failures,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metrics turns the traced pass's spans into per-layer metrics. A span
// name the replay never recorded leaves its metric unset.
func (r *replay) metrics() map[string]float64 {
	d := r.t.durations()
	m := r.layers
	p50 := func(key string, v []float64, unit float64) {
		if len(v) > 0 {
			m[key] = gen.Median(v) / unit
		}
	}
	const us, msec = 1e3, 1e6
	p50("lang.canonical_us_p50", d["lang.canonical"], us)
	p50("plancache.fingerprint_us_p50", d["plancache.fingerprint"], us)
	p50("plancache.get_us_p50", d["plancache.get"], us)
	p50("server.hit_us_p50", d["server.hit"], us)
	p50("lang.parse_us_p50", d["lang.parse"], us)
	p50("compiler.compile_ms_p50", d["compiler.compile"], msec)
	p50("cme.estimate_ms_p50", d["cme.estimate"], msec)
	p50("core.map_ms_p50", d["core.map"], msec)
	p50("estimate.from_result_ms_p50", d["estimate.from_result"], msec)
	p50("estimate.rescore_us_p50", d["estimate.rescore"], us)
	p50("sim.new_ms_p50", d["sim.new"], msec)
	p50("sim.new_alloc_kb", r.t.allocKB("sim.new"), 1)
	p50("sim.run_ms_p50", d["sim.run"], msec)
	p50("sim.run_alloc_kb", r.t.allocKB("sim.run"), 1)
	p50("inspector.run_ms_p50", d["inspector.run"], msec)
	p50("placeopt.search_ms_p50", d["placeopt.search"], msec)
	p50("tenancy.coplace_ms_p50", d["tenancy.coplace"], msec)
	p50("tenancy.ingest_us_p50", d["tenancy.ingest"], us)
	if r.accesses > 0 {
		m["sim.accesses"] = float64(r.accesses)
		m["sim.ns_per_access"] = r.simNs / float64(r.accesses)
	}
	return m
}

// target mirrors the service's request resolution for one body.
type target struct {
	cfg  sim.Config
	opts compiler.Options
	spec plancache.Spec
}

func resolve(b gen.Body) (*target, error) {
	cfg, err := server.BuildTargetPlacement(b.Mesh, "", b.LLC, nil, nil)
	if err != nil {
		return nil, err
	}
	opts := compiler.Options{Cfg: cfg}
	opts.Mapper.Mesh = cfg.Mesh
	opts.Mapper.Seed = b.Seed
	opts.Mapper.Intra = core.IntraRandom
	return &target{cfg: cfg, opts: opts, spec: plancache.Spec{
		Source:    b.Source(),
		MeshW:     cfg.Mesh.Width,
		MeshH:     cfg.Mesh.Height,
		RegionsX:  cfg.Mesh.RegionsX,
		RegionsY:  cfg.Mesh.RegionsY,
		SharedLLC: cfg.LLCOrg == cache.SharedSNUCA,
		Seed:      b.Seed,
		Intra:     int(core.IntraRandom),
	}}, nil
}

// front replays the request path's per-request work: canonical form,
// fingerprint and plan-cache lookup. It reports whether the lookup
// hit.
func (r *replay) front(tg *target, kind string) (string, bool, error) {
	s := r.t.begin("lang.canonical")
	_, err := lang.Canonical(tg.spec.Source)
	r.t.end(s)
	if err != nil {
		return "", false, err
	}
	spec := tg.spec
	spec.Kind = kind
	s = r.t.begin("plancache.fingerprint")
	fp, err := spec.Fingerprint()
	r.t.end(s)
	if err != nil {
		return "", false, err
	}
	s = r.t.begin("plancache.get")
	_, hit := r.pc.Get(fp)
	r.t.end(s)
	return fp, hit, nil
}

// compile replays the compile pipeline: the whole CompileSource call,
// then its parse, CME and mapping layers one by one on the same input.
func (r *replay) compile(tg *target) (*compiler.Result, error) {
	src := tg.spec.Source
	s := r.t.begin("compiler.compile")
	res, err := compiler.CompileSource(src, tg.opts)
	r.t.end(s)
	if err != nil {
		return nil, err
	}
	s = r.t.begin("lang.parse")
	p, err := lang.Parse(src, nil)
	r.t.end(s)
	if err != nil {
		return nil, err
	}
	cfg := tg.cfg
	p.Layout(0, cfg.PageSize)
	s = r.t.begin("cme.estimate")
	est := cme.New(cme.Config{
		Mesh:        cfg.Mesh,
		Org:         cfg.LLCOrg,
		AMap:        sim.AddrMapFor(cfg),
		L1Line:      cfg.L1Line,
		ModelBytes:  cfg.L2PerCore,
		ModelLine:   cfg.L2Line,
		ModelWays:   cfg.L2Ways,
		IterSetFrac: cfg.IterSetFrac,
		Accuracy:    cme.AccuracyFor(p.Name),
		Seed:        1,
	})
	affs := est.EstimateProgram(p)
	r.t.end(s)
	s = r.t.begin("core.map")
	m := core.NewMapper(tg.opts.Mapper)
	for i, n := range p.Nests {
		irregular := false
		for k := range n.Refs {
			irregular = irregular || n.Refs[k].Irregular
		}
		if irregular {
			continue
		}
		if cfg.LLCOrg == cache.SharedSNUCA {
			m.MapShared(affs[i])
		} else {
			m.MapPrivate(affs[i])
		}
	}
	r.t.end(s)
	return res, nil
}

// prepare binds the demo index data, as the service does before
// estimating or simulating.
func prepare(res *compiler.Result) error {
	lang.GenerateIndexData(res.Program, 1, 64)
	return res.Program.Validate()
}

// simulate replays the service's simulation of one compiled body: the
// default-schedule baseline and the location-aware run. It returns the
// location-aware cycles and the access count of both runs.
func (r *replay) simulate(tg *target, res *compiler.Result, workers int) (int64, uint64) {
	cfg := tg.cfg
	cfg.Workers = workers
	p := res.Program
	s, a := r.t.beginAlloc("sim.new")
	sysD := sim.New(cfg)
	r.t.endAlloc(s, a)
	t0 := time.Now()
	s, a = r.t.beginAlloc("sim.run")
	inspector.RunBaseline(sysD, p)
	r.t.endAlloc(s, a)
	r.simNs += float64(time.Since(t0))
	s, a = r.t.beginAlloc("sim.new")
	sys := sim.New(cfg)
	r.t.endAlloc(s, a)
	var cycles int64
	t0 = time.Now()
	if res.NeedsInspector {
		s = r.t.begin("inspector.run")
		cycles = inspector.Run(sys, p, core.NewMapper(tg.opts.Mapper), inspector.DefaultOverhead()).TotalCycles()
		r.t.end(s)
	} else {
		s, a = r.t.beginAlloc("sim.run")
		cycles = sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return res.Schedule }))
		r.t.endAlloc(s, a)
	}
	r.simNs += float64(time.Since(t0))
	stD, st := sysD.Stats(), sys.Stats()
	return cycles, stD.L1Hits + stD.L1Misses + st.L1Hits + st.L1Misses
}

// simulateBody compiles and simulates one body and checks the cycles
// and access count against the reference.
func (r *replay) simulateBody(b gen.Body, workers int, wantCycles func(gen.RefBody) int64) error {
	tg, err := resolve(b)
	if err != nil {
		return err
	}
	q := r.t.request(b.ID())
	defer r.t.end(q)
	if _, _, err := r.front(tg, "simulate"); err != nil {
		return err
	}
	res, err := r.compile(tg)
	if err != nil {
		return err
	}
	if err := prepare(res); err != nil {
		return err
	}
	cycles, acc := r.simulate(tg, res, workers)
	r.accesses += acc
	rb := r.ref.Bodies[b.ID()]
	r.check(cycles == wantCycles(rb), "%s: replayed cycles %d != reference %d", b.ID(), cycles, wantCycles(rb))
	r.check(rb.Accesses == 0 || acc == rb.Accesses, "%s: sim.accesses %d != reference %d", b.ID(), acc, rb.Accesses)
	return nil
}

// ------------------------------------------------------------------ replays

func replayColdSimulate(r *replay, seed uint64) error {
	seen := map[gen.Body]bool{}
	for _, q := range gen.ColdSequence(seed, 2) {
		if q.Repeat || seen[q.Body] || len(seen) == coldBodies {
			continue
		}
		seen[q.Body] = true
		if err := r.simulateBody(q.Body, runtime.GOMAXPROCS(0), func(rb gen.RefBody) int64 { return rb.LocmapCycles }); err != nil {
			return err
		}
	}
	return nil
}

func replayFastTier(r *replay, seed uint64) error {
	for _, b := range gen.FastSequence(seed)[:fastBodies] {
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		q := r.t.request(b.ID())
		if _, _, err := r.front(tg, "estimate"); err != nil {
			return err
		}
		res, err := r.compile(tg)
		if err != nil {
			return err
		}
		if err := prepare(res); err != nil {
			return err
		}
		s := r.t.begin("estimate.from_result")
		plan := estimate.New(estimate.Config{Cfg: tg.cfg, Mapper: tg.opts.Mapper}).FromResult(res)
		r.t.end(s)
		r.check(plan.Alpha >= 0 && plan.Alpha <= 1, "%s: alpha %g outside [0,1]", b.ID(), plan.Alpha)
		r.t.end(q)
		// The background verification: a fresh compile and a full
		// simulation on the verification worker budget.
		if err := r.simulateBody(b, 1, func(rb gen.RefBody) int64 { return rb.SimCycles }); err != nil {
			return err
		}
	}
	return nil
}

func replayHotMap(r *replay, seed uint64) error {
	cats := gen.HotCatalogs(seed)
	fps := map[gen.Body]string{}
	for _, b := range cats.Map {
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		q := r.t.request(b.ID())
		fp, _, err := r.front(tg, "map")
		if err != nil {
			return err
		}
		if _, err := r.compile(tg); err != nil {
			return err
		}
		r.t.end(q)
		fps[b] = fp
	}
	for _, b := range cats.Estimate {
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		q := r.t.request(b.ID())
		res, err := r.compile(tg)
		if err != nil {
			return err
		}
		if err := prepare(res); err != nil {
			return err
		}
		s := r.t.begin("estimate.from_result")
		estimate.New(estimate.Config{Cfg: tg.cfg, Mapper: tg.opts.Mapper}).FromResult(res)
		r.t.end(s)
		r.t.end(q)
	}

	// The hit path: an in-process server warmed with the map catalog,
	// then the workload's cached /v1/map requests through its handler.
	journal := filepath.Join(r.workdir, "trace-journal")
	if err := os.RemoveAll(journal); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		JournalDir: journal,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	bodies := map[gen.Body][]byte{}
	post := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, b := range cats.Map {
		body, err := json.Marshal(b.Request())
		if err != nil {
			return err
		}
		bodies[b] = body
		rec := post(body)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("warm %s: status %d", b.ID(), rec.Code)
		}
		r.pc.Put(fps[b], rec.Body.Bytes())
	}
	hits := 0
	for _, q := range gen.HotSequence(seed, cats, 2*hotHits) {
		if q.Estimate || hits == hotHits {
			continue
		}
		hits++
		b := cats.Map[q.Index]
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		rq := r.t.request(b.ID())
		_, ok, err := r.front(tg, "map")
		if err != nil {
			return err
		}
		s := r.t.begin("server.hit")
		rec := post(bodies[b])
		r.t.end(s)
		r.t.end(rq)
		r.check(ok && rec.Code == http.StatusOK && bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)),
			"%s: in-process hit missed (status %d)", b.ID(), rec.Code)
	}
	return nil
}

func replayOptimizeSessions(r *replay, seed uint64) error {
	for _, b := range gen.OptimizeSequence(seed, optBodies) {
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		q := r.t.request(b.ID())
		if _, _, err := r.front(tg, "optimize"); err != nil {
			return err
		}
		res, err := r.compile(tg)
		if err != nil {
			return err
		}
		if err := prepare(res); err != nil {
			return err
		}
		s := r.t.begin("placeopt.search")
		t0 := time.Now()
		out, err := placeopt.Search(placeopt.Config{
			Target:     tg.cfg,
			Mapper:     tg.opts.Mapper,
			Candidates: gen.OptCandidates,
			TopK:       gen.OptTopK,
			Seed:       b.Seed,
			Sites:      placeopt.SitesEdge,
		}, res)
		took := time.Since(t0)
		r.t.end(s)
		if err != nil {
			return err
		}
		r.check(out.Best.PredictedCycles <= out.Default.PredictedCycles, "%s: search best worse than default", b.ID())
		if r.t.on {
			r.layers["placeopt.candidates_per_s"] += float64(out.Evaluated) / took.Seconds() / optBodies
		}
		// Re-score the search's survivors one candidate at a time, as
		// the search loop does for every candidate.
		affs := estimate.New(estimate.Config{Cfg: tg.cfg, Mapper: tg.opts.Mapper}).Affinities(res)
		mapper := tg.opts.Mapper
		mapper.Mesh = nil
		for k := 0; k < rescoreRepeat; k++ {
			for _, sc := range append(out.Top, out.Default, out.Best) {
				m2, err := tg.cfg.Mesh.WithMCs(sc.Placement.MCCoords())
				if err != nil {
					return err
				}
				cand := tg.cfg
				cand.Mesh = m2
				s := r.t.begin("estimate.rescore")
				plan := estimate.New(estimate.Config{Cfg: cand, Mapper: mapper}).FromAffinities(res, affs)
				r.t.end(s)
				r.check(plan.PredictedCycles == sc.PredictedCycles, "%s: re-scored %d != searched %d",
					b.ID(), plan.PredictedCycles, sc.PredictedCycles)
			}
		}
		r.t.end(q)
	}

	for k, b := range gen.ChurnTargets(seed, churnRounds) {
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		q := r.t.request(fmt.Sprintf("churn-%d", k))
		res, err := r.compile(tg)
		if err != nil {
			return err
		}
		if err := prepare(res); err != nil {
			return err
		}
		est := estimate.New(estimate.Config{Cfg: tg.cfg, Mapper: tg.opts.Mapper})
		affs := est.Affinities(res)
		plan := est.FromResult(res)
		tenants := make([]tenancy.Tenant, gen.SessionsPerRound)
		for i := range tenants {
			tenants[i] = tenancy.Tenant{ID: fmt.Sprintf("t%d", i), Affs: affs}
		}
		s := r.t.begin("tenancy.coplace")
		pl, err := tenancy.CoPlace(tenancy.CoPlaceConfig{Mesh: tg.cfg.Mesh, Seed: int64(k)}, tenants)
		r.t.end(s)
		if err != nil {
			return err
		}
		r.check(coversDisjoint(pl, tg.cfg.Mesh), "churn %d: co-placement overlaps or leaves the mesh", k)
		mgr := tenancy.NewManager(tenancy.Config{})
		sess, err := mgr.Register(fmt.Sprintf("trace-%d", k), b.Mesh, json.RawMessage(`{}`), affs,
			tenancy.Plan{Tier: estimate.TierEstimate, PredictedAlpha: plan.Alpha, PredictedCycles: plan.PredictedCycles})
		if err != nil {
			return err
		}
		tel := tenancy.Telemetry{Alpha: gen.DriftAlpha(plan.Alpha)}
		for i := 0; i < ingestSamples/churnRounds; i++ {
			s := r.t.begin("tenancy.ingest")
			mgr.Ingest(sess, tel)
			r.t.end(s)
		}
		r.t.end(q)
	}
	return nil
}

// coversDisjoint reports whether a co-placement's partitions are
// disjoint and inside the mesh.
func coversDisjoint(pl *tenancy.Placement, mesh *topology.Mesh) bool {
	seen := map[topology.NodeID]bool{}
	for _, t := range pl.Tenants {
		for _, c := range t.Cores {
			if int(c) < 0 || int(c) >= mesh.NumNodes() || seen[c] {
				return false
			}
			seen[c] = true
		}
	}
	return true
}

// recordAccessCounts simulates every body once and stores its access
// count in the reference file.
func recordAccessCounts(ref *gen.Reference, path string) error {
	seen := map[gen.Body]bool{}
	r := &replay{t: newTracer(false), ref: ref, pc: plancache.New(1024), layers: map[string]float64{}}
	for _, b := range append(gen.SimSpace(), gen.CheapSpace()...) {
		if seen[b] {
			continue
		}
		seen[b] = true
		tg, err := resolve(b)
		if err != nil {
			return err
		}
		res, err := compiler.CompileSource(tg.spec.Source, tg.opts)
		if err != nil {
			return err
		}
		if err := prepare(res); err != nil {
			return err
		}
		cycles, acc := r.simulate(tg, res, 1)
		rb := ref.Bodies[b.ID()]
		if rb.LocmapCycles != 0 && cycles != rb.LocmapCycles {
			return fmt.Errorf("%s: cycles %d != reference %d", b.ID(), cycles, rb.LocmapCycles)
		}
		rb.Accesses = acc
		ref.Bodies[b.ID()] = rb
	}
	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
