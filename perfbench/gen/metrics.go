package gen

// Metric is one reported metric.
type Metric struct {
	Name, Unit, Better string

	// Workloads lists the workloads that exercise a per-layer metric
	// (nil: all of them). On the others it reads 0.
	Workloads []string
}

// Exercises reports whether the workload exercises the metric.
func (m Metric) Exercises(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// EndToEnd lists the end-to-end metrics every workload reports with
// tracing off.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher"},
	{Name: "server_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

var (
	hot      = []string{HotMap}
	sims     = []string{ColdSimulate, FastTier}
	fast     = []string{FastTier}
	opt      = []string{OptimizeSessions}
	requests = []string{HotMap, ColdSimulate, FastTier}
	jobs     = []string{FastTier, OptimizeSessions}
	pools    = []string{ColdSimulate, FastTier, OptimizeSessions}
)

// PerLayer lists the per-layer metrics every traced run reports.
var PerLayer = []Metric{
	{"server.hit_us_p50", "us", "lower", hot},
	{"server.transport_us_p50", "us", "lower", hot},
	{"lang.canonical_us_p50", "us", "lower", nil},
	{"plancache.fingerprint_us_p50", "us", "lower", nil},
	{"plancache.get_us_p50", "us", "lower", nil},
	{"plancache.hit_ratio", "ratio", "higher", requests},
	{"lang.parse_us_p50", "us", "lower", nil},
	{"compiler.compile_ms_p50", "ms", "lower", nil},
	{"cme.estimate_ms_p50", "ms", "lower", nil},
	{"core.map_ms_p50", "ms", "lower", nil},
	{"estimate.from_result_ms_p50", "ms", "lower", []string{HotMap, FastTier}},
	{"estimate.rescore_us_p50", "us", "lower", opt},
	{"sim.new_ms_p50", "ms", "lower", sims},
	{"sim.new_alloc_kb", "KB", "lower", sims},
	{"sim.run_ms_p50", "ms", "lower", sims},
	{"sim.run_alloc_kb", "KB", "lower", sims},
	{"sim.ns_per_access", "ns", "lower", sims},
	{"sim.accesses", "count", "lower", sims},
	{"inspector.run_ms_p50", "ms", "lower", sims},
	{"jobqueue.verify_wait_ms_p50", "ms", "lower", []string{HotMap, FastTier}},
	{"jobqueue.background_depth_max", "count", "lower", fast},
	{"jobqueue.optimize_wait_ms_p50", "ms", "lower", opt},
	{"jobqueue.optimize_exec_ms_p50", "ms", "lower", opt},
	{"jobqueue.dedup_ratio", "ratio", "higher", jobs},
	{"server.inflight_max", "count", "lower", pools},
	{"placeopt.search_ms_p50", "ms", "lower", opt},
	{"placeopt.candidates_per_s", "1/s", "higher", opt},
	{"tenancy.coplace_ms_p50", "ms", "lower", opt},
	{"tenancy.ingest_us_p50", "us", "lower", opt},
	{"metrics.exposition_bytes", "bytes", "lower", nil},
	{"metrics.scrape_ms", "ms", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
}
