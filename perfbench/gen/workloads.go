package gen

import (
	"math/rand/v2"
)

// Workload names.
const (
	HotMap           = "hot-map"
	ColdSimulate     = "cold-simulate"
	FastTier         = "fast-tier"
	OptimizeSessions = "optimize-sessions"
)

// Workloads lists every workload in the order BENCHMARK.json names
// them.
var Workloads = []string{HotMap, ColdSimulate, FastTier, OptimizeSessions}

// Load shape constants.
const (
	// HotRate is hot-map's open-loop rate (requests per second).
	HotRate = 1000
	// HotEstimateShare is the share of hot-map requests sent to
	// /v1/estimate; the rest go to /v1/map.
	HotEstimateShare = 0.2
	// HotEstimateSeeds request seeds per cheap combo make hot-map's
	// /v1/estimate catalog.
	HotEstimateSeeds = 4
	// FastRate is fast-tier's open-loop rate of cold /v1/map requests.
	FastRate = 20
	// PollEvery is how often fast-tier re-polls an unverified plan, in
	// milliseconds.
	PollEvery = 10
	// SessionsPerRound is how many sessions one churn round registers.
	SessionsPerRound = 3
)

// Catalogs is hot-map's request catalog: every combo with HotSeeds
// request seeds for /v1/map, and the cheap bodies of the first HotEstimateSeeds seeds
// for /v1/estimate, each in a seeded Zipf rank order.
type Catalogs struct {
	Map, Estimate []Body
}

// HotCatalogs builds hot-map's catalogs for a seed. Ranks are assigned
// in stratified rounds, so every run of len(combos) consecutive ranks
// holds each combo once and the hot head has the same mix of plan
// sizes for every seed.
func HotCatalogs(seed uint64) Catalogs {
	r := Rand(seed, 1)
	return Catalogs{
		Map:      Stratified(r, Combos(), HotSeeds, len(Combos())*HotSeeds),
		Estimate: Stratified(r, CheapCombos(), HotEstimateSeeds, len(CheapCombos())*HotEstimateSeeds),
	}
}

// Zipf law of hot-map's ranks: P(k) ∝ (zipfV + k)^-zipfS. The offset
// flattens the head, so no single body carries more than a few percent
// of the traffic.
const (
	zipfS = 1.1
	zipfV = 8
)

// HotRequest is one hot-map request: which catalog and which rank.
type HotRequest struct {
	Estimate bool
	Index    int
}

// HotSequence draws n hot-map requests: the endpoint by share, the body
// by a Zipf law over the catalog's ranks.
func HotSequence(seed uint64, c Catalogs, n int) []HotRequest {
	r := Rand(seed, 2)
	zm := rand.NewZipf(r, zipfS, zipfV, uint64(len(c.Map)-1))
	ze := rand.NewZipf(r, zipfS, zipfV, uint64(len(c.Estimate)-1))
	out := make([]HotRequest, n)
	for i := range out {
		if r.Float64() < HotEstimateShare {
			out[i] = HotRequest{true, int(ze.Uint64())}
		} else {
			out[i] = HotRequest{false, int(zm.Uint64())}
		}
	}
	return out
}

// ColdRequest is one cold-simulate request; Repeat marks a request that
// re-sends a body from the last 2 × ColdClients requests.
type ColdRequest struct {
	Body   Body
	Repeat bool
}

// ColdClients is cold-simulate's client count, nproc on the reference
// host; its sequence is laid out in pairs for two clients.
const ColdClients = 2

// ColdRound is how many requests one cold-simulate round holds: every
// combo once as a fresh body, and as many repeats.
var ColdRound = 2 * len(Combos())

// ColdDupEvery is how many rounds pass between two in-flight
// duplicates of one combo: a quarter of the combos are duplicated in
// flight each round.
const ColdDupEvery = 4

// ColdSequence draws rounds × ColdRound cold-simulate requests, to be
// sent in lockstep pairs (one request per client, both in flight
// together). A round sends every combo once as a fresh body and once
// more as a repeat. A quarter of the combos go as a pair sending the
// body twice, so the repeat overlaps its original in flight; the rest
// go two to a pair, each pair followed by a pair repeating it, so those
// repeats are cache hits. Which combos are duplicated in flight rotates
// round by round, so the mix of executed work is the same for every
// seed; the seed picks the request seeds, the rotation's start, the
// pairing and the order.
func ColdSequence(seed uint64, rounds int) []ColdRequest {
	r := Rand(seed, 3)
	combos := Combos()
	off := make([]int, len(combos))
	for i := range off {
		off[i] = r.IntN(SimSeeds)
	}
	rot := r.IntN(ColdDupEvery)
	out := make([]ColdRequest, 0, rounds*ColdRound)
	for round := 0; round < rounds; round++ {
		var units [][]ColdRequest
		var hits []Body
		for i, c := range combos {
			b := Body{c, int64((off[i] + round) % SimSeeds)}
			if (i+round+rot)%ColdDupEvery == 0 {
				units = append(units, []ColdRequest{{b, false}, {b, true}})
			} else {
				hits = append(hits, b)
			}
		}
		r.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		for k := 0; k+1 < len(hits); k += 2 {
			x, y := hits[k], hits[k+1]
			units = append(units, []ColdRequest{{x, false}, {y, false}, {x, true}, {y, true}})
		}
		r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		for _, u := range units {
			out = append(out, u...)
		}
	}
	return out
}

// FastSequence is fast-tier's cold body order: every cheap body once,
// in a seeded order, so each request carries a fresh fingerprint.
func FastSequence(seed uint64) []Body {
	return Shuffled(Rand(seed, 5), CheapSpace())
}

// OptimizeSequence is the order optimize-sessions submits optimize
// bodies in: stratified rounds over the optimize combos.
func OptimizeSequence(seed uint64, n int) []Body {
	return Stratified(Rand(seed, 6), OptimizeCombos(), OptSeeds, n)
}

// ChurnTargets returns the target body of each churn round: a cheap
// combo per round, in a seeded order that repeats every len(combos)
// rounds.
func ChurnTargets(seed uint64, rounds int) []Body {
	r := Rand(seed, 7)
	combos := CheapCombos()
	out := make([]Body, 0, rounds)
	for len(out) < rounds {
		for _, i := range r.Perm(len(combos)) {
			out = append(out, Body{combos[i], 0})
		}
	}
	return out[:rounds]
}

// DriftAlpha is the α a churned session reports: the plan's prediction
// moved by 0.35 towards the far end of [0,1], well past the default
// drift tolerance.
func DriftAlpha(predicted float64) float64 {
	if predicted > 0.5 {
		return predicted - 0.35
	}
	return predicted + 0.35
}
