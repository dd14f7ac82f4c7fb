package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"locmap/perfbench/gen"
)

// record regenerates the reference data: it runs every body of every
// space once against a fresh server and stores the fingerprints and
// digests of the simulated statistics. Accesses recorded by the traced
// replay are kept.
func (e *env) record(path string) error {
	ref := &gen.Reference{
		Note:   "Simulated statistics of every benchmark body, recorded by perfbench/load -record; regenerate only when a change is meant to alter simulated results.",
		Bodies: map[string]gen.RefBody{},
	}
	for id, rb := range e.ref.Bodies {
		if rb.Accesses != 0 {
			ref.Bodies[id] = gen.RefBody{Accesses: rb.Accesses}
		}
	}
	var mu sync.Mutex
	update := func(id string, f func(*gen.RefBody)) {
		mu.Lock()
		rb := ref.Bodies[id]
		f(&rb)
		ref.Bodies[id] = rb
		mu.Unlock()
	}
	srv, err := startServer(e.locmapd, filepath.Join(e.runDir, "record"), nil)
	if err != nil {
		return err
	}
	c := newClient(srv.base, conns)
	defer func() { c.close(); _ = srv.stop() }()
	if err := srv.waitReady(e.ctx, c); err != nil {
		return err
	}
	seen := map[gen.Body]bool{}
	var simBodies []gen.Body
	for _, b := range append(gen.SimSpace(), gen.CheapSpace()...) {
		if !seen[b] {
			seen[b] = true
			simBodies = append(simBodies, b)
		}
	}
	t0 := time.Now()
	err = parallel(simBodies, func(b gen.Body) error {
		env, fail := postPlan(e.ctx, c, "/v1/simulate", mustJSON(b.Request()))
		if fail != "" {
			return fmt.Errorf("simulate %s: %s", b.ID(), fail)
		}
		var r gen.SimResult
		if err := json.Unmarshal(env.Plan, &r); err != nil {
			return err
		}
		update(b.ID(), func(rb *gen.RefBody) {
			rb.SimulateFP, rb.SimDigest, rb.LocmapCycles = env.Fingerprint, gen.SimDigest(&r), r.LocmapCycles
		})
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d simulations in %v\n", len(simBodies), time.Since(t0))

	t0 = time.Now()
	err = parallel(gen.CheapSpace(), func(b gen.Body) error {
		body := mustJSON(b.Request())
		for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			env, fail := postPlan(e.ctx, c, "/v1/estimate", body)
			if fail != "" {
				return fmt.Errorf("estimate %s: %s", b.ID(), fail)
			}
			var er gen.EstimateResult
			if err := json.Unmarshal(env.Plan, &er); err != nil {
				return err
			}
			if er.Verification == nil {
				continue
			}
			v := er.Verification
			var mismatch error
			update(b.ID(), func(rb *gen.RefBody) {
				rb.EstimateFP, rb.VerifyDigest, rb.SimCycles = env.Fingerprint, gen.VerifyDigest(v), v.SimCycles
				if rb.LocmapCycles != v.SimCycles {
					mismatch = fmt.Errorf("%s: verification sim_cycles %d != simulate locmap_cycles %d",
						b.ID(), v.SimCycles, rb.LocmapCycles)
				}
			})
			return mismatch
		}
		return fmt.Errorf("estimate %s never verified", b.ID())
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d verifications in %v\n", len(gen.CheapSpace()), time.Since(t0))

	t0 = time.Now()
	for _, b := range gen.OptimizeSpace() {
		st, raw, err := c.post(e.ctx, "/v1/optimize", mustJSON(b.OptimizeBody()))
		if err != nil || st != http.StatusAccepted {
			return fmt.Errorf("optimize %s: %v status %d %s", b.ID(), err, st, raw)
		}
		var ack struct {
			JobID       string `json:"job_id"`
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(raw, &ack); err != nil {
			return err
		}
		js, err := e.pollJob(c, ack.JobID, 2*time.Minute)
		if err != nil {
			return err
		}
		if js.State != "done" {
			return fmt.Errorf("optimize %s: job %s: %s", b.ID(), js.State, js.Error)
		}
		var r gen.OptimizeResult
		if err := json.Unmarshal(js.Result, &r); err != nil {
			return err
		}
		update(b.ID(), func(rb *gen.RefBody) {
			rb.OptimizeFP, rb.OptimizeDigest = ack.Fingerprint, gen.OptimizeDigest(&r)
		})
		if probs := checkOptimize(b, ack.Fingerprint, js.Result, ref); len(probs) > 0 {
			return fmt.Errorf("optimize %s: %s", b.ID(), probs[0])
		}
	}
	fmt.Fprintf(os.Stderr, "recorded %d optimize jobs in %v\n", len(gen.OptimizeSpace()), time.Since(t0))
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// parallel runs f over bodies on conns goroutines and returns the first
// error.
func parallel(bodies []gen.Body, f func(gen.Body) error) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for errs[w] == nil {
				k := int(next.Add(1) - 1)
				if k >= len(bodies) {
					return
				}
				errs[w] = f(bodies[k])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
