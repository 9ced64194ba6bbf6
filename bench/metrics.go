package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json repeats these
// tables for the driver; bench_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a user of the simulator sees. The first four
// are host cost, measured per untraced rep; the last three are simulated
// results in virtual time, which repeat exactly for a given seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"io_saved_frac", "fraction", "higher", 0.20},
	{"maint_done_frac", "fraction", "higher", 0.05},
	{"fg_lat_mean_ms", "sim_ms", "lower", 0.10},
}

// simulated reports whether an end-to-end metric is a virtual-time
// result rather than a host cost.
func simulated(name string) bool {
	return name == "io_saved_frac" || name == "maint_done_frac" || name == "fg_lat_mean_ms"
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the single-layer metrics, all from the one traced rep:
// CPU seconds from the profile ledger, counts from each layer's public
// counters, and the per-operation costs that divide one by the other.
var perLayer = []metricDef{
	lower("sim.cpu_s", "s"), lower("sim.timers", "count"), lower("sim.procs", "count"),
	lower("sim.callbacks", "count"), lower("sim.window_rounds", "count"),
	lower("sim.ns_per_timer", "ns"), lower("sim.dj2_wall_ratio", "ratio"),
	lower("runtime.sched_cpu_s", "s"), lower("runtime.gc_cpu_s", "s"),

	lower("storage.cpu_s", "s"), lower("storage.requests", "count"),
	lower("storage.busy_normal_frac", "fraction"), higher("storage.busy_idle_frac", "fraction"),
	lower("storage.retries", "count"), lower("storage.stalls", "count"),
	lower("iosched.cpu_s", "s"),

	lower("pagecache.cpu_s", "s"), lower("pagecache.inserts", "count"),
	lower("pagecache.evictions", "count"), higher("pagecache.hit_ratio", "ratio"),
	lower("pagecache.writeback_pages", "count"), lower("pagecache.events_dispatched", "count"),
	higher("pagecache.events_filtered", "count"), lower("pagecache.ns_per_insert", "ns"),

	lower("core.cpu_s", "s"), lower("core.hook_calls", "count"), lower("core.fetch_calls", "count"),
	higher("core.items_fetched", "count"), lower("core.events_dropped", "count"),
	lower("core.peak_descs", "count"), lower("core.ns_per_hook_call", "ns"),

	lower("cowfs.cpu_s", "s"), lower("cowfs.reads_pages", "count"), lower("cowfs.miss_pages", "count"),
	lower("cowfs.writes_pages", "count"), lower("cowfs.writeback_pages", "count"),
	lower("cowfs.ns_per_page", "ns"),

	lower("lfs.cpu_s", "s"), lower("lfs.writes_pages", "count"), lower("lfs.segs_cleaned", "count"),
	lower("lfs.gc_blocks_read", "count"), higher("lfs.gc_blocks_cached", "count"),
	lower("lfs.gc_blocks_moved", "count"),

	lower("tasks.cpu_s", "s"), higher("tasks.work_done", "count"), higher("tasks.saved", "count"),
	lower("tasks.read_blocks", "count"), higher("tasks.saved_per_item", "ratio"),
	lower("workload.cpu_s", "s"), higher("workload.ops", "count"), lower("workload.errors", "count"),

	lower("cluster.cpu_s", "s"), higher("cluster.writes_acked", "count"),
	lower("cluster.log_records", "count"), lower("cluster.rpc_retries", "count"),
	lower("cluster.rpc_timeouts", "count"), lower("cluster.pages_shipped", "count"),
	lower("cluster.degraded_vs", "sim_s"),
	lower("faults.cpu_s", "s"), lower("faults.injected", "count"),

	lower("machine.build_s", "s"), lower("machine.populate_s", "s"), lower("machine.collect_s", "s"),
	lower("machine.cpu_s", "s"), lower("experiments.cpu_s", "s"), lower("experiments.cells", "count"),

	lower("other.cpu_s", "s"),
	lower("host.alloc_mb", "MB"), lower("host.mallocs", "count"), lower("host.gc_cycles", "count"),
	higher("host.profile_samples", "count"), lower("trace.overhead_ratio", "ratio"),
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver computes spreads with. It needs two samples; with
// fewer both quartiles are the sample itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
