package locmap

// One benchmark per paper table/figure. Each bench runs the corresponding
// experiment from internal/experiments on a small representative benchmark
// subset (so `go test -bench=.` completes in minutes) and reports the
// headline numbers as custom metrics. cmd/paperbench runs the same
// experiments over all 21 applications.

import (
	"testing"

	"locmap/internal/cache"
	"locmap/internal/cooptim"
	"locmap/internal/core"
	"locmap/internal/experiments"
	"locmap/internal/inspector"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// benchApps is the representative subset used by the benchmarks: one
// irregular inspector-executor code and one memory-bound stencil. The full
// 21-benchmark sweeps live in cmd/paperbench; benchmarks stay small so
// `go test -bench=.` completes in minutes on one core.
var benchApps = []string{"hpccg", "swim"}

func reportMainMetrics(b *testing.B, ms []experiments.AppMetrics) {
	var net, exec []float64
	for _, m := range ms {
		net = append(net, m.NetRed())
		exec = append(exec, m.ExecRed())
	}
	b.ReportMetric(stats.GeomeanPct(net), "netRed%")
	b.ReportMetric(stats.GeomeanPct(exec), "execRed%")
}

// opts pins Jobs to 1: the per-figure benchmarks measure raw simulation
// cost, so they run the job layer serially for comparable numbers across
// machines. BenchmarkRunnerParallel/Memoized measure the concurrent and
// memoized paths explicitly.
func opts() experiments.Options { return experiments.Options{Apps: benchApps, Jobs: 1} }

// BenchmarkFig02IdealNetwork measures the zero-latency-NoC potential
// (paper Figure 2: 14% private / 17.1% shared on average).
func BenchmarkFig02IdealNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig2(experiments.Options{Apps: []string{"swim", "mxm"}, Jobs: 1})
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Properties regenerates the benchmark-properties table
// (paper Table 3), including the measured fraction of sets moved by load
// balancing.
func BenchmarkTable3Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(experiments.Options{Apps: []string{"swim", "mxm"}, Jobs: 1})
	}
}

// BenchmarkFig07Private measures the private-LLC main results (paper
// Figure 7: 38.4% network latency, 10.9% execution time on average).
func BenchmarkFig07Private(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		ms = experiments.RunAll(opts(), experiments.DefaultVariant(cache.Private))
	}
	reportMainMetrics(b, ms)
}

// BenchmarkFig08Shared measures the shared-LLC main results (paper
// Figure 8: 43.8% network latency, 12.7% execution time on average).
func BenchmarkFig08Shared(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		ms = experiments.RunAll(opts(), experiments.DefaultVariant(cache.SharedSNUCA))
	}
	reportMainMetrics(b, ms)
}

// BenchmarkFig09Sensitivity sweeps the hardware variations (paper
// Figure 9: 8×8 mesh, 1MB LLC, 8KB pages, alternate MC placement).
func BenchmarkFig09Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkFig10RegionsAndSetSize sweeps region counts and iteration-set
// sizes (paper Figures 10a–10d).
func BenchmarkFig10RegionsAndSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkFig11Distributions sweeps the (cache,memory) interleave
// granularities (paper Figure 11).
func BenchmarkFig11Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkFig12DDR4 re-measures under DDR4-2133 (paper Figure 12: 9.5% /
// 11.4% average execution-time improvement).
func BenchmarkFig12DDR4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(experiments.Options{Apps: []string{"swim", "mxm"}, Jobs: 1})
	}
}

// BenchmarkFig13DataLayout compares against and composes with the DO
// data-layout scheme (paper Figure 13).
func BenchmarkFig13DataLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkFig14HardwarePlacement compares against the hardware/OS
// application-to-core placement (paper Figure 14).
func BenchmarkFig14HardwarePlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig14(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkFig15Oracle measures the perfect-estimation upper bound (paper
// Figure 15).
func BenchmarkFig15Oracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15(experiments.Options{Apps: []string{"swim", "mxm"}, Jobs: 1})
	}
}

// BenchmarkFig16KNLModes measures the KNL cluster-mode study (paper
// Figure 16).
func BenchmarkFig16KNLModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig16(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkFig17KNLScaled measures the KNL scaled-input study (paper
// Figure 17) on a reduced subset.
func BenchmarkFig17KNLScaled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig17(experiments.Options{Apps: []string{"mxm"}, Jobs: 1})
	}
}

// BenchmarkMultiprogrammed measures the 4-application co-run study (§5
// text: 18.1% private / 26.7% shared in the paper).
func BenchmarkMultiprogrammed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MultiProg(experiments.Options{Apps: []string{"swim", "mxm", "fft", "hpccg"}, Jobs: 1})
	}
}

// BenchmarkAblationFineMAC measures the §3.9 finer-granularity MAC
// alternative (inverse-distance weights instead of nearest-MC sharing).
func BenchmarkAblationFineMAC(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		v := experiments.DefaultVariant(cache.Private)
		v.Mapper.FineMAC = true
		ms = experiments.RunAll(opts(), v)
	}
	reportMainMetrics(b, ms)
}

// BenchmarkAblationNoBalance disables the location-aware load balancer,
// isolating its contribution.
func BenchmarkAblationNoBalance(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		v := experiments.DefaultVariant(cache.Private)
		v.Mapper.DisableBalance = true
		ms = experiments.RunAll(opts(), v)
	}
	reportMainMetrics(b, ms)
}

// BenchmarkAblationRoundRobinIntra uses deterministic round-robin
// within-region placement instead of the paper's random policy (§3.9's
// "OS option").
func BenchmarkAblationRoundRobinIntra(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		v := experiments.DefaultVariant(cache.Private)
		v.Mapper.Intra = core.IntraRoundRobin
		ms = experiments.RunAll(opts(), v)
	}
	reportMainMetrics(b, ms)
}

// BenchmarkRunnerParallel measures the Figure 7 sweep through the
// concurrent job runner at full pool width — the cmd/paperbench -j fast
// path. Results are byte-identical to the serial path; only wall-clock
// changes (with the number of cores).
func BenchmarkRunnerParallel(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		ms = experiments.RunAll(experiments.Options{Apps: benchApps}, experiments.DefaultVariant(cache.Private))
	}
	reportMainMetrics(b, ms)
}

// BenchmarkRunnerMemoized measures a figure re-requested against a
// shared runner: after the warm-up pass every job is served from the
// memo table, so this is the per-request overhead of the dedup layer.
func BenchmarkRunnerMemoized(b *testing.B) {
	r := experiments.NewRunner(0)
	o := experiments.Options{Apps: benchApps, Runner: r}
	v := experiments.DefaultVariant(cache.Private)
	experiments.RunAll(o, v) // warm the memo table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAll(o, v)
	}
	if c := r.Counters(); c.Executed != uint64(len(benchApps)) {
		b.Fatalf("memo missed: %+v", c)
	}
}

// BenchmarkExtensionCoOptimize measures the paper's named future work —
// joint computation + data-placement optimization (internal/cooptim) —
// against computation mapping alone.
func BenchmarkExtensionCoOptimize(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = 0
		for _, app := range []string{"swim", "mxm"} {
			p := workloads.MustNew(app, 1)
			cfg := sim.DefaultConfig()

			sysDef := sim.New(cfg)
			defCycles := sim.TotalCycles(inspector.RunBaseline(sysDef, p))

			res := cooptim.Optimize(p, cooptim.Options{Cfg: cfg})
			optCfg := cfg
			optCfg.AddrMap = res.Map
			sysOpt := sim.New(optCfg)
			optCycles := sim.TotalCycles(sysOpt.RunTiming(p, func(int) *sim.Schedule { return res.Schedule }))
			gain += stats.PctReduction(float64(defCycles), float64(optCycles))
		}
		gain /= 2
	}
	b.ReportMetric(gain, "execRed%")
}

// BenchmarkExtensionTorus measures the mapping on a 6x6 torus (the §3.9
// other-topologies discussion): wraparound halves worst-case distances,
// so the absolute headroom shrinks.
func BenchmarkExtensionTorus(b *testing.B) {
	var ms []experiments.AppMetrics
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		mesh := topology.MustNew(6, 6, 3, 3, topology.MCCorners)
		mesh.Wrap = true
		cfg.Mesh = mesh
		ms = experiments.RunAll(opts(), experiments.Variant{Cfg: cfg})
	}
	reportMainMetrics(b, ms)
}
