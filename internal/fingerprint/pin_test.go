package fingerprint_test

import (
	"testing"

	"locmap/internal/experiments"
	"locmap/internal/plancache"
	"locmap/internal/sim"
)

// TestFingerprintPins locks the two consumer fingerprints to known
// digests. These hex values were captured from the original
// hand-rolled constructions before they were rebuilt on
// fingerprint.Hasher; a mismatch means cache keys (and cluster
// routing) drifted across the refactor.
func TestFingerprintPins(t *testing.T) {
	spec := plancache.Spec{
		Source: "param N = 4096\narray A[N]\narray B[N]\nparallel for i = 0..N work 16 { A[i] = B[i] }",
		Params: map[string]int64{"N": 4096, "M": 7},
		MeshW:  6, MeshH: 6,
		RegionsX: 3, RegionsY: 3,
		SharedLLC:   true,
		Alpha:       0.75,
		Seed:        42,
		FineMAC:     true,
		Intra:       1,
		TimingIters: 3,
		Kind:        "map",
	}
	got, err := spec.Fingerprint()
	if err != nil {
		t.Fatalf("Spec.Fingerprint: %v", err)
	}
	const wantSpec = "1871572b1d08d8005cf54d2ff8551ed537a98e87068032463844c79c527b05f0"
	if got != wantSpec {
		t.Errorf("plancache Spec pin drifted:\n got  %s\n want %s", got, wantSpec)
	}

	// Placement fields are hashed only when present: a spec without
	// them must keep the pre-placement digest above (proven by the pin
	// match), and each of MCs/Banks must change the key on its own.
	mcSpec := spec
	mcSpec.MCs = [][2]int{{0, 0}, {5, 0}, {0, 5}, {5, 5}}
	gotMC, err := mcSpec.Fingerprint()
	if err != nil {
		t.Fatalf("Spec.Fingerprint with MCs: %v", err)
	}
	if gotMC == wantSpec {
		t.Errorf("custom MC placement did not change the fingerprint")
	}
	bankSpec := spec
	bankSpec.Banks = [][2]int{{2, 2}, {3, 3}}
	gotBank, err := bankSpec.Fingerprint()
	if err != nil {
		t.Fatalf("Spec.Fingerprint with Banks: %v", err)
	}
	if gotBank == wantSpec || gotBank == gotMC {
		t.Errorf("bank subset did not get its own fingerprint")
	}

	appJob := experiments.Job{
		Kind:  experiments.KindApp,
		App:   "triad",
		Scale: 2,
		Variant: experiments.Variant{
			Cfg:       sim.DefaultConfig(),
			WithIdeal: true,
		},
	}
	const wantApp = "5edfb68563b6aa29985bbf14dc32784c28c56205f6de392d16796a4e0da8af02"
	if got := appJob.Fingerprint(); got != wantApp {
		t.Errorf("experiments app-job pin drifted:\n got  %s\n want %s", got, wantApp)
	}

	knlJob := experiments.Job{Kind: experiments.KindKNL, App: "spmv", Scale: 1}
	const wantKNL = "daea9280faafdf23dc616092e89e40cdf06d5836cecb7dc41f969a20185731cd"
	if got := knlJob.Fingerprint(); got != wantKNL {
		t.Errorf("experiments KNL-job pin drifted:\n got  %s\n want %s", got, wantKNL)
	}

	// Cfg.Workers is deprecated and ignored by the simulator, so the
	// fingerprint must not see it — a drift here would split the
	// Runner's memo table (and cluster routing) on a field that changes
	// nothing. The pin above predates the Workers field, so matching it
	// already proves exclusion; this spells the property out directly.
	parJob := appJob
	parJob.Variant.Cfg.Workers = 8
	if got := parJob.Fingerprint(); got != wantApp {
		t.Errorf("Cfg.Workers leaked into the job fingerprint:\n got  %s\n want %s", got, wantApp)
	}
}
