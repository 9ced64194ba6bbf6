package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"duet/internal/obs"
	"duet/internal/sim"
)

// runOpts selects one run of one workload.
type runOpts struct {
	Workload string
	Seed     int64
	// Quick divides every simulated window by ten.
	Quick bool
	// Trace holds a CPU profile for exactly the sim.run span and reads
	// allocator statistics around it. End-to-end numbers never come
	// from a traced run.
	Trace bool
	// Workers is the engine's domain worker count; only the
	// multi-domain cluster workload can use more than one.
	Workers int
	// Spawned is when the parent started this process (zero when the
	// run is in-process): set-up is counted from there, so that work
	// moved into package initialisation shows.
	Spawned time.Time
	// SetupOnly makes a child process print its set-up time and exit
	// at the boundary to the timed phase: cheap extra samples of
	// setup_s, which is small and noisy on most workloads.
	SetupOnly bool
}

// notApplicable is reported for an end-to-end metric a workload has no
// definition for. The driver's contract wants every end-to-end metric
// on every workload and never zero; a constant one cannot regress.
const notApplicable = 1.0

// run is the state of one in-process run: the span log, the optional
// profile around sim.run, the counters read from each layer afterwards,
// and the correctness tally.
type run struct {
	opts  runOpts
	spans *spanLog
	reg   *obs.Registry      // filled by the workload's CollectMetrics call
	sim   map[string]float64 // simulated end-to-end metrics
	layer map[string]float64 // per-layer counts the registry does not hold

	// reports collects the task reports and stats structs, folded into
	// the digest beside the registry dump.
	reports bytes.Buffer

	attempted, failed int64
	failures          []string

	prepareSpan, timedSpan int
	profile                bytes.Buffer
	mem0, mem1             runtime.MemStats
}

// runResult is one run's outcome; a child process prints it as its one
// line of JSON.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Workers   int                `json:"workers"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	Sim       map[string]float64 `json:"sim"`
	Layer     map[string]float64 `json:"layer"`
	Digest    string             `json:"sim_digest"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Spans     []span             `json:"spans"`
	// CPUS and RSSMB are the child's rusage, filled in by the parent.
	CPUS  float64 `json:"cpu_s,omitempty"`
	RSSMB float64 `json:"rss_peak_mb,omitempty"`

	profile []byte // the raw CPU profile of a traced run
}

// runWorkload executes one workload in this process.
func runWorkload(o runOpts) (*runResult, error) {
	def := lookupWorkload(o.Workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	r := &run{
		opts:  o,
		spans: newSpanLog(),
		reg:   obs.NewRegistry(),
		sim:   map[string]float64{},
		layer: map[string]float64{},
	}
	if !o.Spawned.IsZero() {
		r.spans.t0 = o.Spawned
	}
	root := r.spans.begin("bench.workload")
	if err := def.fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	r.spans.end(root)
	return r.result()
}

// window scales a simulated duration for -quick.
func (r *run) window(d sim.Time) sim.Time {
	if r.opts.Quick {
		return d / 10
	}
	return d
}

// check records a correctness failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// beginPrepare opens the scenario.prepare span: whatever still has to
// happen, possibly inside the engine, before the timed phase.
func (r *run) beginPrepare() { r.prepareSpan = r.spans.begin("scenario.prepare") }

// beginTimed is the boundary between set-up and the timed phase.
// Workloads whose preparation needs simulated I/O call it from their
// own main process, inside Eng.Run.
func (r *run) beginTimed() {
	r.spans.end(r.prepareSpan)
	if r.opts.SetupOnly {
		fmt.Printf("{\"setup_s\":%g}\n", time.Since(r.spans.t0).Seconds())
		os.Exit(0)
	}
	if r.opts.Trace {
		runtime.ReadMemStats(&r.mem0)
		if err := pprof.StartCPUProfile(&r.profile); err != nil {
			r.check(false, "cpu profile: %v", err)
		}
	}
	r.timedSpan = r.spans.begin("sim.run")
}

// endTimed closes the timed phase, after the engine has returned.
func (r *run) endTimed() {
	if r.timedSpan == 0 {
		r.spans.end(r.prepareSpan) // preparation failed before the boundary
		return
	}
	r.spans.end(r.timedSpan)
	if r.opts.Trace {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&r.mem1)
	}
}

// registryDump is the part of obs.WriteMetricsJSON the benchmark reads.
type registryDump struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]struct {
		Max int64 `json:"max"`
	} `json:"gauges"`
}

// result turns the run's raw material into named metrics.
func (r *run) result() (*runResult, error) {
	var dump bytes.Buffer
	if err := obs.WriteMetricsJSON(&dump, r.reg); err != nil {
		return nil, err
	}
	var reg registryDump
	if err := json.Unmarshal(dump.Bytes(), &reg); err != nil {
		return nil, fmt.Errorf("registry dump: %w", err)
	}
	h := fnv.New64a()
	h.Write(dump.Bytes())
	h.Write(r.reports.Bytes())

	timed := findSpan(r.spans.spans, "sim.run")
	res := &runResult{
		Workload:  r.opts.Workload,
		Seed:      r.opts.Seed,
		Traced:    r.opts.Trace,
		Workers:   r.opts.Workers,
		SetupS:    timed.Start,
		WallS:     timed.dur(),
		Sim:       r.sim,
		Layer:     r.layer,
		Digest:    fmt.Sprintf("%016x", h.Sum64()),
		Attempted: r.attempted,
		Failed:    r.failed,
		Failures:  r.failures,
		Spans:     r.spans.spans,
		profile:   r.profile.Bytes(),
	}
	if n := int64(len(r.failures)); res.Failed < n {
		res.Failed = n // an invariant or audit failure fails the run even with every op served
	}
	if res.Attempted < res.Failed {
		res.Attempted = res.Failed
	}

	l := r.layer
	count := func(name string) float64 { return float64(reg.Counters[name]) }
	// Disk counters are published per device ("storage.sda.requests");
	// sum them over the machine's, or the cluster's, disks.
	diskSum := map[string]float64{}
	disks := 0.0
	for name, v := range reg.Counters {
		rest, ok := strings.CutPrefix(name, "storage.")
		if !ok {
			continue
		}
		if _, counter, ok := strings.Cut(rest, "."); ok {
			diskSum[counter] += float64(v)
			if counter == "requests" {
				disks++
			}
		}
	}
	simUs := count("sim.now_us") * disks

	l["sim.timers"] = count("sim.timers_scheduled")
	l["sim.procs"] = count("sim.procs_created")
	l["sim.callbacks"] = count("sim.callbacks_created")
	l["sim.window_rounds"] = count("sim.window_rounds")
	l["storage.requests"] = diskSum["requests"]
	l["storage.busy_normal_frac"] = ratio(diskSum["busy_normal_us"], simUs)
	l["storage.busy_idle_frac"] = ratio(diskSum["busy_idle_us"], simUs)
	l["storage.retries"] = diskSum["retries"]
	l["storage.stalls"] = diskSum["stalls"]
	for _, name := range []string{"inserts", "evictions", "writeback_pages", "events_dispatched", "events_filtered"} {
		l["pagecache."+name] = count("pagecache." + name)
	}
	l["pagecache.hit_ratio"] = ratio(count("pagecache.hits"), count("pagecache.hits")+count("pagecache.misses"))
	for _, name := range []string{"hook_calls", "fetch_calls", "items_fetched", "events_dropped"} {
		l["core."+name] = count("duet." + name)
	}
	l["core.peak_descs"] = float64(reg.Gauges["duet.peak_descs"].Max)
	for _, name := range []string{"reads_pages", "miss_pages", "writes_pages", "writeback_pages"} {
		l["cowfs."+name] = count("cowfs." + name)
	}
	for _, name := range []string{"writes_pages", "segs_cleaned", "gc_blocks_read", "gc_blocks_cached", "gc_blocks_moved"} {
		l["lfs."+name] = count("lfs." + name)
	}
	for _, name := range []string{"writes_acked", "log_records", "rpc_retries", "rpc_timeouts", "pages_shipped"} {
		l["cluster."+name] = count("cluster." + name)
	}
	l["tasks.saved_per_item"] = ratio(l["tasks.saved"], l["core.items_fetched"])
	for _, name := range []string{"build", "populate", "collect"} {
		if s := findSpan(res.Spans, "machine."+name); s != nil {
			l["machine."+name+"_s"] = s.dur()
		}
	}

	if r.opts.Trace {
		samples, err := decodeProfile(r.profile.Bytes())
		if err != nil {
			return nil, err
		}
		cpu := layerCPU(samples)
		for _, layer := range ledgerLayers {
			l[layer+".cpu_s"] = cpu[layer]
		}
		l["runtime.sched_cpu_s"] = cpu[layerSched]
		l["runtime.gc_cpu_s"] = cpu[layerGC]
		l["other.cpu_s"] = cpu[layerOther]
		for _, s := range samples {
			l["host.profile_samples"] += float64(s.Count)
		}
		l["host.alloc_mb"] = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / (1 << 20)
		l["host.mallocs"] = float64(r.mem1.Mallocs - r.mem0.Mallocs)
		l["host.gc_cycles"] = float64(r.mem1.NumGC - r.mem0.NumGC)
		l["sim.ns_per_timer"] = ratio(cpu["sim"]*1e9, l["sim.timers"])
		l["pagecache.ns_per_insert"] = ratio(cpu["pagecache"]*1e9, l["pagecache.inserts"])
		l["core.ns_per_hook_call"] = ratio(cpu["core"]*1e9, l["core.hook_calls"])
		l["cowfs.ns_per_page"] = ratio(cpu["cowfs"]*1e9, l["cowfs.reads_pages"]+l["cowfs.writes_pages"])
	}
	return res, nil
}
