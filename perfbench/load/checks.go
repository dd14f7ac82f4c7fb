package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"locmap/perfbench/gen"
)

// envelope is the success-response shape shared by the plan endpoints.
type envelope struct {
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Tier        string          `json:"tier"`
	Plan        json.RawMessage `json:"plan"`
}

func planHash(raw []byte) [32]byte { return sha256.Sum256(raw) }

// pctReduction mirrors the service's improvement_pct definition.
func pctReduction(base, val float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - val) / base
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// checkSchedule reports schedule core ids outside the body's mesh.
func checkSchedule(p gen.Plan, cores int) []string {
	for n, nest := range p.Schedule {
		for _, c := range nest {
			if c < 0 || c >= cores {
				return []string{fmt.Sprintf("schedule core out of mesh: nest %d core %d of %d", n, c, cores)}
			}
		}
	}
	return nil
}

// checkMapPlan checks a /v1/map (static tier) plan.
func checkMapPlan(b gen.Body, raw []byte) []string {
	var p gen.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return []string{"undecodable map plan: " + err.Error()}
	}
	return checkSchedule(p, b.Cores())
}

// checkEstimate checks the invariants of a fast-tier payload and, once
// verified, its simulated statistics against the reference. It returns
// the decoded payload.
func checkEstimate(b gen.Body, raw []byte, ref *gen.Reference) (*gen.EstimateResult, []string) {
	var er gen.EstimateResult
	if err := json.Unmarshal(raw, &er); err != nil {
		return nil, []string{"undecodable estimate payload: " + err.Error()}
	}
	var probs []string
	e := er.Estimate
	if e.Alpha < 0 || e.Alpha > 1 || math.IsNaN(e.Alpha) {
		probs = append(probs, fmt.Sprintf("alpha %g outside [0,1]", e.Alpha))
	}
	if e.PredictedCycles <= 0 || e.BaselineCycles <= 0 {
		probs = append(probs, "non-positive predicted cycles")
	}
	if !closeTo(e.ImprovementPct, pctReduction(float64(e.BaselineCycles), float64(e.PredictedCycles))) {
		probs = append(probs, fmt.Sprintf("improvement_pct %g inconsistent with cycles", e.ImprovementPct))
	}
	probs = append(probs, checkSchedule(er.Plan, b.Cores())...)
	if v := er.Verification; v != nil {
		rb, ok := ref.Bodies[b.ID()]
		switch {
		case !ok || rb.VerifyDigest == "":
			probs = append(probs, "no reference verification for "+b.ID())
		case gen.VerifyDigest(v) != rb.VerifyDigest:
			probs = append(probs, fmt.Sprintf("verification of %s differs from reference", b.ID()))
		case rb.LocmapCycles != 0 && v.SimCycles != rb.LocmapCycles:
			probs = append(probs, fmt.Sprintf("verification sim_cycles %d != simulate locmap_cycles %d for %s",
				v.SimCycles, rb.LocmapCycles, b.ID()))
		}
	}
	return &er, probs
}

// checkSimulate checks a /v1/simulate answer against the reference.
func checkSimulate(b gen.Body, env *envelope, ref *gen.Reference) []string {
	var r gen.SimResult
	if err := json.Unmarshal(env.Plan, &r); err != nil {
		return []string{"undecodable simulate payload: " + err.Error()}
	}
	var probs []string
	rb, ok := ref.Bodies[b.ID()]
	switch {
	case !ok || rb.SimDigest == "":
		probs = append(probs, "no reference simulation for "+b.ID())
	case env.Fingerprint != rb.SimulateFP:
		probs = append(probs, "simulate fingerprint differs from reference for "+b.ID())
	case gen.SimDigest(&r) != rb.SimDigest:
		probs = append(probs, fmt.Sprintf("simulated statistics of %s differ from reference", b.ID()))
	}
	if !closeTo(r.ImprovementPct, pctReduction(float64(r.DefaultCycles), float64(r.LocmapCycles))) {
		probs = append(probs, "improvement_pct inconsistent with cycles")
	}
	return append(probs, checkSchedule(r.Plan, b.Cores())...)
}

// checkOptimize checks a done optimize job's result.
func checkOptimize(b gen.Body, fp string, raw []byte, ref *gen.Reference) []string {
	var r gen.OptimizeResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return []string{"undecodable optimize result: " + err.Error()}
	}
	var probs []string
	if r.Search.Best.PredictedCycles > r.Search.Default.PredictedCycles {
		probs = append(probs, "search best predicted worse than default")
	}
	if r.Best.SimulatedCycles <= 0 || r.Best.SimulatedCycles > r.Default.SimulatedCycles {
		probs = append(probs, fmt.Sprintf("best simulated %d worse than default %d",
			r.Best.SimulatedCycles, r.Default.SimulatedCycles))
	}
	if !closeTo(r.Best.ImprovementPct, pctReduction(float64(r.Default.SimulatedCycles), float64(r.Best.SimulatedCycles))) {
		probs = append(probs, "best improvement_pct inconsistent with cycles")
	}
	w, h := meshDims(b.Mesh)
	for _, v := range append([]gen.VerifiedPlacement{r.Best}, r.Verified...) {
		if v.Error != "" {
			probs = append(probs, "verification child failed: "+v.Error)
		}
		for _, mc := range v.Placement.MCs {
			if mc[0] < 0 || mc[0] >= w || mc[1] < 0 || mc[1] >= h {
				probs = append(probs, fmt.Sprintf("MC at %v outside the mesh", mc))
			}
		}
	}
	rb, ok := ref.Bodies[b.ID()]
	switch {
	case !ok || rb.OptimizeDigest == "":
		probs = append(probs, "no reference optimize result for "+b.ID())
	case fp != rb.OptimizeFP:
		probs = append(probs, "optimize fingerprint differs from reference for "+b.ID())
	case gen.OptimizeDigest(&r) != rb.OptimizeDigest:
		probs = append(probs, fmt.Sprintf("optimize simulations of %s differ from reference", b.ID()))
	case rb.LocmapCycles != 0 && r.Default.SimulatedCycles != rb.LocmapCycles:
		probs = append(probs, "optimize default simulation differs from /v1/simulate for "+b.ID())
	}
	return probs
}

func meshDims(mesh string) (int, int) {
	var w, h int
	fmt.Sscanf(mesh, "%dx%d", &w, &h)
	return w, h
}
