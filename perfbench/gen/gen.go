// Package gen builds the benchmark's request bodies from seeded
// templates and holds what the load generator and the traced replay
// share: the body spaces, the wire shapes of the responses that are
// checked, the digests of simulated statistics, and the reference data
// those digests are compared against.
package gen

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

//go:embed templates/*.loc
var templates embed.FS

//go:embed reference.json
var referenceJSON []byte

// Templates names every program template, regular ones first.
var Templates = []string{"triad", "copy2", "stencil", "gather"}

// Meshes, LLCs and Sizes are the target and problem-size axes every
// template is crossed with.
var (
	Meshes = []string{"6x6", "12x12"}
	LLCs   = []string{"private", "shared"}
	Sizes  = []string{"small", "large"}
)

// Per-core data footprints of the two size classes: below and above
// the simulated 16 KB L1.
const (
	smallFootprint = 4 << 10
	largeFootprint = 18 << 10
)

// bytesPerUnit is how many bytes of data one unit of a template's size
// parameter touches: one iteration for the streams, one 1024-element
// row of both grids for the stencil.
var bytesPerUnit = map[string]int{"triad": 24, "copy2": 16, "stencil": 16384, "gather": 24}

// Space sizes. SimSeeds request seeds per combo make the simulate
// space and HotSeeds of them hot-map's /v1/map catalog; CheapSeeds per
// 6x6 small-footprint combo make the fast-tier space, whose plans are
// verified in the background; OptSeeds per optimize combo make the
// optimize space.
const (
	SimSeeds   = 16
	HotSeeds   = 8
	CheapSeeds = 64
	OptSeeds   = 8
)

// Combo is one template × target × size point.
type Combo struct {
	Template, Mesh, LLC, Size string
}

// Body is one request body: a combo plus the request's intra-region
// shuffle seed, which changes the fingerprint and the schedule.
type Body struct {
	Combo
	Seed int64
}

// ID names the body; reference data is keyed by it.
func (b Body) ID() string {
	return fmt.Sprintf("%s/%s/%s/%s/s%d", b.Template, b.Mesh, b.LLC, b.Size, b.Seed)
}

// Regular reports whether every nest of the body is affine.
func (b Body) Regular() bool { return b.Template != "gather" }

// Cores is the core count of the body's mesh.
func (b Body) Cores() int {
	w, h, _ := strings.Cut(b.Mesh, "x")
	wi, _ := strconv.Atoi(w)
	hi, _ := strconv.Atoi(h)
	return wi * hi
}

// SizeParam is the template's size parameter for the body's target.
func (b Body) SizeParam() int {
	fp := smallFootprint
	if b.Size == "large" {
		fp = largeFootprint
	}
	return fp * b.Cores() / bytesPerUnit[b.Template]
}

// Source instantiates the body's template.
func (b Body) Source() string {
	src, err := templates.ReadFile("templates/" + b.Template + ".loc")
	if err != nil {
		panic(fmt.Sprintf("template %s: %v", b.Template, err))
	}
	return strings.ReplaceAll(string(src), "{{N}}", strconv.Itoa(b.SizeParam()))
}

// Request is the shared target block the benchmark sends.
type Request struct {
	Source string `json:"source"`
	Mesh   string `json:"mesh"`
	LLC    string `json:"llc"`
	Seed   int64  `json:"seed"`
}

// Request returns the body's target block.
func (b Body) Request() Request {
	return Request{Source: b.Source(), Mesh: b.Mesh, LLC: b.LLC, Seed: b.Seed}
}

// Combos lists every template × target × size point in a fixed order.
func Combos() []Combo {
	var out []Combo
	for _, t := range Templates {
		for _, m := range Meshes {
			for _, l := range LLCs {
				for _, s := range Sizes {
					out = append(out, Combo{t, m, l, s})
				}
			}
		}
	}
	return out
}

func cross(combos []Combo, seeds int) []Body {
	var out []Body
	for s := 0; s < seeds; s++ {
		for _, c := range combos {
			out = append(out, Body{c, int64(s)})
		}
	}
	return out
}

// SimSpace is every body /v1/map and /v1/simulate traffic draws from.
func SimSpace() []Body { return cross(Combos(), SimSeeds) }

// CheapCombos are the 6x6 small-footprint combos, whose background
// verification is cheap enough to keep up with a steady stream.
func CheapCombos() []Combo {
	var out []Combo
	for _, c := range Combos() {
		if c.Mesh == "6x6" && c.Size == "small" {
			out = append(out, c)
		}
	}
	return out
}

// CheapSpace is the fast-tier body space.
func CheapSpace() []Body { return cross(CheapCombos(), CheapSeeds) }

// OptimizeCombos are the /v1/optimize combos: the regular cheap ones,
// so every job costs about the same.
func OptimizeCombos() []Combo {
	var combos []Combo
	for _, c := range CheapCombos() {
		if c.Template != "gather" {
			combos = append(combos, c)
		}
	}
	return combos
}

// OptimizeSpace is the /v1/optimize body space.
func OptimizeSpace() []Body { return cross(OptimizeCombos(), OptSeeds) }

// Optimize search knobs, fixed for every job.
const (
	OptCandidates = 200
	OptTopK       = 2
)

// OptimizeRequest is a /v1/optimize body.
type OptimizeRequest struct {
	Request
	Candidates int    `json:"candidates"`
	TopK       int    `json:"top_k"`
	Sites      string `json:"sites"`
}

// OptimizeBody returns the body's /v1/optimize request.
func (b Body) OptimizeBody() OptimizeRequest {
	return OptimizeRequest{Request: b.Request(), Candidates: OptCandidates, TopK: OptTopK, Sites: "edge"}
}

// Rand returns the benchmark's generator for one seed and stream.
func Rand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// Shuffled returns a seeded permutation of bodies.
func Shuffled(r *rand.Rand, bodies []Body) []Body {
	out := append([]Body(nil), bodies...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Stratified returns n bodies in rounds: every round covers each combo
// once, in a seeded order, so the combo mix of any prefix is the same
// for every benchmark seed to within one round. A combo's request seed
// advances by one per round from a seeded offset, so no body repeats
// within the first seeds rounds.
func Stratified(r *rand.Rand, combos []Combo, seeds, n int) []Body {
	off := make([]int, len(combos))
	for i := range off {
		off[i] = r.IntN(seeds)
	}
	out := make([]Body, 0, n)
	for round := 0; len(out) < n; round++ {
		for _, i := range r.Perm(len(combos)) {
			if len(out) == n {
				break
			}
			out = append(out, Body{combos[i], int64((off[i] + round) % seeds)})
		}
	}
	return out
}

// SimTelemetry is the telemetry block of a simulation result.
type SimTelemetry struct {
	L1HitFraction  float64 `json:"l1_hit_fraction"`
	LLCHitFraction float64 `json:"llc_hit_fraction"`
	NoCLegs        []struct {
		Leg         string  `json:"leg"`
		Packets     uint64  `json:"packets"`
		TotalCycles uint64  `json:"total_cycles"`
		AvgCycles   float64 `json:"avg_cycles"`
	} `json:"noc_legs"`
}

// Plan is the part of a compiled plan the checks read.
type Plan struct {
	NeedsInspector bool    `json:"needs_inspector"`
	Schedule       [][]int `json:"schedule"`
}

// SimResult is the plan payload of /v1/simulate.
type SimResult struct {
	Plan           Plan         `json:"plan"`
	DefaultCycles  int64        `json:"default_cycles"`
	LocmapCycles   int64        `json:"locmap_cycles"`
	ImprovementPct float64      `json:"improvement_pct"`
	Telemetry      SimTelemetry `json:"telemetry"`
}

// Verification is the background verification report of a fast-tier
// plan.
type Verification struct {
	SimAlpha      float64 `json:"sim_alpha"`
	SimCycles     int64   `json:"sim_cycles"`
	DefaultCycles int64   `json:"default_cycles"`
}

// EstimateResult is the plan payload of /v1/estimate and fast-tier
// /v1/map.
type EstimateResult struct {
	Tier     string `json:"tier"`
	Plan     Plan   `json:"plan"`
	Estimate struct {
		Alpha           float64 `json:"alpha"`
		PredictedCycles int64   `json:"predicted_cycles"`
		BaselineCycles  int64   `json:"baseline_cycles"`
		ImprovementPct  float64 `json:"improvement_pct"`
	} `json:"estimate"`
	Verification *Verification `json:"verification"`
}

// Placement is a chip placement in an optimize result.
type Placement struct {
	MCs [][2]int `json:"mcs"`
}

// VerifiedPlacement is one simulated candidate of an optimize result.
type VerifiedPlacement struct {
	Placement       Placement `json:"placement"`
	PredictedCycles int64     `json:"predicted_cycles"`
	SimulatedCycles int64     `json:"simulated_cycles"`
	ImprovementPct  float64   `json:"improvement_pct"`
	Error           string    `json:"error"`
}

// Scored is one estimate-tier candidate of an optimize search.
type Scored struct {
	Placement       Placement `json:"placement"`
	PredictedCycles int64     `json:"predicted_cycles"`
}

// OptimizeResult is the result of a done /v1/optimize job.
type OptimizeResult struct {
	Search struct {
		Default   Scored `json:"default"`
		Best      Scored `json:"best"`
		Evaluated int    `json:"evaluated"`
	} `json:"search"`
	Default  VerifiedPlacement   `json:"default"`
	Verified []VerifiedPlacement `json:"verified"`
	Best     VerifiedPlacement   `json:"best"`
}

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// SimDigest digests every simulated statistic of a simulation result.
func SimDigest(r *SimResult) string {
	return digest([]any{r.DefaultCycles, r.LocmapCycles, r.Telemetry})
}

// VerifyDigest digests a verification report's simulated statistics.
func VerifyDigest(v *Verification) string {
	return digest([]any{v.SimAlpha, v.SimCycles, v.DefaultCycles})
}

// OptimizeDigest digests the simulated cycles of an optimize result.
func OptimizeDigest(r *OptimizeResult) string {
	sims := []any{r.Default.SimulatedCycles, r.Best.SimulatedCycles, r.Best.Placement}
	for _, v := range r.Verified {
		sims = append(sims, v.Placement, v.SimulatedCycles)
	}
	return digest(sims)
}

// RefBody is the recorded outcome of one body.
type RefBody struct {
	// SimulateFP and SimDigest are the /v1/simulate fingerprint and the
	// digest of its simulated statistics; LocmapCycles is kept for the
	// fast tier's cross-check.
	SimulateFP   string `json:"simulate_fp,omitempty"`
	SimDigest    string `json:"sim_digest,omitempty"`
	LocmapCycles int64  `json:"locmap_cycles,omitempty"`

	// EstimateFP and VerifyDigest are the fast-tier fingerprint and the
	// digest of its background verification.
	EstimateFP   string `json:"estimate_fp,omitempty"`
	VerifyDigest string `json:"verify_digest,omitempty"`
	SimCycles    int64  `json:"sim_cycles,omitempty"`

	// OptimizeFP and OptimizeDigest are the /v1/optimize job
	// fingerprint and the digest of its simulated candidates.
	OptimizeFP     string `json:"optimize_fp,omitempty"`
	OptimizeDigest string `json:"optimize_digest,omitempty"`

	// Accesses is the simulated access count of the body's two runs
	// (default and location-aware), from the traced replay.
	Accesses uint64 `json:"accesses,omitempty"`
}

// Reference is the checked-in reference data.
type Reference struct {
	Note   string             `json:"note"`
	Bodies map[string]RefBody `json:"bodies"`
}

// LoadReference decodes the embedded reference data.
func LoadReference() (*Reference, error) {
	var ref Reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference data: %w", err)
	}
	if ref.Bodies == nil {
		ref.Bodies = map[string]RefBody{}
	}
	return &ref, nil
}
