// Command bench is the repository's benchmark: five simulator workloads,
// each reported as host cost (set-up, wall-clock, CPU, peak RSS) beside
// the simulated result (maintenance I/O saved, maintenance completed,
// foreground latency), plus a per-layer ledger taken from outside the
// product by one extra traced rep. See README.md.
//
//	go run -C bench . [--workload a,b] [--seed 1] [--seconds 14] [--reps n]
//	                  [--trace 0|1|2] [--out dir] [--check] [--quick]
//
// The parent re-executes its own binary once per (workload, rep): a
// fresh process is needed because the experiments package memoises
// calibration in package state, and because CPU and peak RSS come from
// the child's rusage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one rep; the slowest (paper-tab5) takes ~20 s on
// the 2-core reference box.
const childTimeout = 150 * time.Second

type config struct {
	workloads []string
	seed      int64
	seconds   float64
	reps      int
	trace     int
	out       string
	check     bool
	quick     bool
}

func main() {
	var (
		wl      = flag.String("workload", "", "comma-separated workloads (default: all five)")
		seed    = flag.Int64("seed", 1, "simulation seed (paper-tab5 ignores it)")
		seconds = flag.Float64("seconds", 14, "per workload, keep starting untraced reps until they have run this long")
		reps    = flag.Int("reps", 0, "untraced reps per workload; overrides --seconds when positive")
		trace   = flag.Int("trace", 2, "0: end-to-end metrics only; 1: per-layer metrics only (one untraced, one traced rep); 2: both")
		out     = flag.String("out", "", "directory for results.json, span traces and CPU profiles (default: .bench_out in the checkout)")
		check   = flag.Bool("check", false, "run two interleaved sets of the same code and fail if any end-to-end median differs by more than its bound")
		quick   = flag.Bool("quick", false, "simulated windows ÷10 and one rep: a smoke run, not a measurement")

		child   = flag.Bool("child", false, "internal: run one rep in this process and print its result as JSON")
		traced  = flag.Bool("traced", false, "internal: profile the timed phase")
		workers = flag.Int("workers", 1, "internal: engine domain workers")
		spawned = flag.Int64("spawned", 0, "internal: parent's spawn time, Unix ns")
		setup   = flag.Bool("setup-only", false, "internal: print the set-up time and exit where the timed phase would start")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *child {
		opts := runOpts{Workload: *wl, Seed: *seed, Quick: *quick, Trace: *traced, Workers: *workers, SetupOnly: *setup}
		if *spawned > 0 {
			opts.Spawned = time.Unix(0, *spawned)
		}
		if err := childMain(opts, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}

	cfg := config{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace, out: *out, check: *check, quick: *quick}
	if *wl == "" {
		for _, w := range workloads {
			cfg.workloads = append(cfg.workloads, w.name)
		}
	} else {
		cfg.workloads = strings.Split(*wl, ",")
	}
	for _, name := range cfg.workloads {
		if lookupWorkload(name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
	}
	if cfg.trace < 0 || cfg.trace > 2 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0, 1 or 2")
		os.Exit(2)
	}
	if cfg.quick {
		cfg.reps = 1
	}
	ok, err := parentMain(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// childMain runs one rep. GOMAXPROCS is pinned to the engine's worker
// count (one, except for the dj2 rep), so that numbers from machines
// with different core counts are comparable and garbage collection
// shows in wall-clock time. With a second P every handoff between
// simulated processes may become a cross-thread futex wake-up: on the
// 2-core reference VM that made paper-tab5 3-4x slower and its
// wall-clock swing by 30% between identical runs.
func childMain(opts runOpts, out string) error {
	runtime.GOMAXPROCS(max(1, opts.Workers))
	res, err := runWorkload(opts)
	if err != nil {
		return err
	}
	if opts.Trace && out != "" {
		f, err := os.Create(filepath.Join(out, opts.Workload+".trace.json"))
		if err != nil {
			return err
		}
		if err := writeChromeTrace(f, "bench "+opts.Workload, res.Spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, opts.Workload+".cpu.pprof"), res.profile, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one rep in a child process and adds the child's rusage to
// its result.
func spawn(exe string, opts runOpts, out string) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", opts.Workload,
		"-seed", fmt.Sprint(opts.Seed), "-workers", fmt.Sprint(opts.Workers), "-out", out}
	if opts.Quick {
		args = append(args, "-quick")
	}
	if opts.Trace {
		args = append(args, "-traced")
	}
	if opts.SetupOnly {
		args = append(args, "-setup-only")
	}
	args = append(args, "-spawned", fmt.Sprint(time.Now().UnixNano()))
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s rep: %w", opts.Workload, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s rep output: %w", opts.Workload, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("%s rep: no rusage", opts.Workload)
	}
	res.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return res, nil
}

// setupSamples is how many set-up-only children each workload gets
// besides its full reps. setup_s is a few milliseconds on most
// workloads, so one sample per rep would leave its median to chance.
const setupSamples = 5

// workloadRuns holds every rep of one workload in one set.
type workloadRuns struct {
	Name     string       `json:"name"`
	Untraced []*runResult `json:"untraced"`
	SetupS   []float64    `json:"setup_only_s,omitempty"` // from set-up-only children
	Traced   *runResult   `json:"traced,omitempty"`
	DJ2      *runResult   `json:"dj2,omitempty"` // cluster-repair at two domain workers
}

// runSets runs n complete sets (two for --check) as one interleaved
// schedule: untraced reps go round-robin across workloads, and within a
// workload across sets, so that drift of the shared machine spreads
// evenly over everything that will be compared. The set-up-only children
// and the traced rep of each follow.
func runSets(cfg config, exe string, n int) ([][]*workloadRuns, error) {
	sets := make([][]*workloadRuns, n)
	for s := range sets {
		sets[s] = make([]*workloadRuns, len(cfg.workloads))
	}
	var units []*workloadRuns // in schedule order
	for i, name := range cfg.workloads {
		for s := range sets {
			sets[s][i] = &workloadRuns{Name: name}
			units = append(units, sets[s][i])
		}
	}
	opts := func(u *workloadRuns) runOpts {
		return runOpts{Workload: u.Name, Seed: cfg.seed, Quick: cfg.quick, Workers: 1}
	}
	elapsed := map[*workloadRuns]float64{}
	wantMore := func(u *workloadRuns) bool {
		n := len(u.Untraced)
		switch {
		case n == 0:
			return true
		case cfg.trace == 1:
			return false // only needed as the base of trace.overhead_ratio
		case cfg.reps > 0:
			return n < cfg.reps
		}
		return elapsed[u] < cfg.seconds
	}
	for more := true; more; {
		more = false
		for _, u := range units {
			if !wantMore(u) {
				continue
			}
			more = true
			start := time.Now()
			res, err := spawn(exe, opts(u), cfg.out)
			if err != nil {
				return nil, err
			}
			elapsed[u] += time.Since(start).Seconds()
			u.Untraced = append(u.Untraced, res)
			fmt.Fprintf(os.Stderr, "  %-15s rep %d  setup %.3fs  wall %.3fs  cpu %.3fs  rss %.0fMB\n",
				u.Name, len(u.Untraced), res.SetupS, res.WallS, res.CPUS, res.RSSMB)
		}
	}
	for _, u := range units {
		if cfg.trace != 1 && !cfg.quick {
			o := opts(u)
			o.SetupOnly = true
			for n := 0; n < setupSamples; n++ {
				res, err := spawn(exe, o, cfg.out)
				if err != nil {
					return nil, err
				}
				u.SetupS = append(u.SetupS, res.SetupS)
			}
		}
		if cfg.trace == 0 {
			continue
		}
		o := opts(u)
		o.Trace = true
		res, err := spawn(exe, o, cfg.out)
		if err != nil {
			return nil, err
		}
		u.Traced = res
		fmt.Fprintf(os.Stderr, "  %-15s traced wall %.3fs\n", u.Name, res.WallS)
		// The dj2 rep needs a second core to mean anything.
		if u.Name == "cluster-repair" && runtime.NumCPU() >= 2 {
			o := opts(u)
			o.Workers = 2
			res, err := spawn(exe, o, cfg.out)
			if err != nil {
				return nil, err
			}
			u.DJ2 = res
			fmt.Fprintf(os.Stderr, "  %-15s dj2    wall %.3fs\n", u.Name, res.WallS)
		}
	}
	return sets, nil
}

// summary is one workload's metrics over one set.
type summary struct {
	Workload  string               `json:"workload"`
	Samples   map[string][]float64 `json:"samples"` // metric name -> one value per rep
	Digest    string               `json:"sim_digest"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
}

func (s *summary) correct() bool { return s.Failed == 0 }

// summarize folds one workload's reps into metric samples and the
// correctness verdict. End-to-end numbers come only from untraced reps;
// per-layer numbers only from the traced one.
func summarize(w *workloadRuns) *summary {
	s := &summary{Workload: w.Name, Samples: map[string][]float64{}, Digest: w.Untraced[0].Digest}
	all := append([]*runResult(nil), w.Untraced...)
	for _, r := range w.Untraced {
		s.Samples["setup_s"] = append(s.Samples["setup_s"], r.SetupS)
		s.Samples["wall_s"] = append(s.Samples["wall_s"], r.WallS)
		s.Samples["cpu_s"] = append(s.Samples["cpu_s"], r.CPUS)
		s.Samples["rss_peak_mb"] = append(s.Samples["rss_peak_mb"], r.RSSMB)
		for name, v := range r.Sim {
			s.Samples[name] = append(s.Samples[name], v)
		}
	}
	s.Samples["setup_s"] = append(s.Samples["setup_s"], w.SetupS...)
	if t := w.Traced; t != nil {
		all = append(all, t)
		for name, v := range t.Layer {
			s.Samples[name] = []float64{v}
		}
		base := median(s.Samples["wall_s"])
		s.Samples["trace.overhead_ratio"] = []float64{ratio(t.WallS, base)}
		if w.DJ2 != nil {
			all = append(all, w.DJ2)
			s.Samples["sim.dj2_wall_ratio"] = []float64{ratio(w.DJ2.WallS, base)}
		}
	}
	for _, r := range all {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Failures = append(s.Failures, r.Failures...)
		if r.Digest != s.Digest {
			// Reps of one seed must be the same simulation; if they
			// are not, nothing measured here can be trusted.
			s.Failures = append(s.Failures, fmt.Sprintf("sim_digest %s differs from %s (traced=%v workers=%d)",
				r.Digest, s.Digest, r.Traced, r.Workers))
			s.Failed = s.Attempted
		}
	}
	s.Failed = min(s.Failed, s.Attempted)
	return s
}

// value is a metric's reported value: the median of its samples, or
// zero for a per-layer metric the workload never touches.
func (s *summary) value(name string) float64 {
	if v := s.Samples[name]; len(v) > 0 {
		return median(v)
	}
	return 0
}

// reported lists the metrics a --trace mode reports: end-to-end from
// the untraced reps (0, 2), per-layer from the traced one (1, 2).
func reported(trace int) []metricDef {
	var defs []metricDef
	if trace != 1 {
		defs = append(defs, endToEnd...)
	}
	if trace != 0 {
		defs = append(defs, perLayer...)
	}
	return defs
}

func printSummary(s *summary, trace int) {
	fmt.Printf("\n== %s  sim_digest %s  fail_frac %d/%d\n", s.Workload, s.Digest, s.Failed, s.Attempted)
	row := func(d metricDef) {
		v := s.Samples[d.Name]
		if len(v) == 0 {
			v = []float64{0}
		}
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("  %-28s %-9s median %-14.6g min %-14.6g max %-14.6g n=%d\n",
			d.Name, d.Unit, median(v), lo, hi, len(v))
	}
	for _, d := range reported(trace) {
		row(d)
	}
	for _, f := range s.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
}

// driverLine is the one JSON object the driver's contract asks for as
// the last line of standard output.
func driverLine(s *summary, trace int) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range reported(trace) {
		metrics[d.Name] = metric{s.value(d.Name), d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.correct(), s.Attempted, s.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// provenance is recorded beside the numbers in results.json.
type provenance struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"` // of each child but the dj2 rep, which has 2
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Reps       int      `json:"reps"` // 0: governed by seconds
	Quick      bool     `json:"quick"`
	Workloads  []string `json:"workloads"`
	Started    string   `json:"started"`
}

func parentMain(cfg config) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(root, ".bench_out")
	}
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return false, err
	}
	prov := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: 1, Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps,
		Quick: cfg.quick, Workloads: cfg.workloads, Started: time.Now().UTC().Format(time.RFC3339),
	}
	if head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		prov.Commit = strings.TrimSpace(string(head))
	}

	n := 1
	if cfg.check {
		n = 2
	}
	sets, err := runSets(cfg, exe, n)
	if err != nil {
		return false, err
	}
	type setResult struct {
		Runs      []*workloadRuns `json:"runs"`
		Summaries []*summary      `json:"summaries"`
	}
	var results []setResult
	ok := true
	for i, runs := range sets {
		if n > 1 {
			fmt.Printf("\n==== set %d of %d\n", i+1, n)
		}
		sr := setResult{Runs: runs}
		for _, w := range runs {
			s := summarize(w)
			sr.Summaries = append(sr.Summaries, s)
			printSummary(s, cfg.trace)
			ok = ok && s.correct()
		}
		results = append(results, sr)
	}
	if cfg.check && !printCheck(results[0].Summaries, results[1].Summaries) {
		ok = false
	}

	doc, err := json.MarshalIndent(struct {
		Provenance provenance  `json:"provenance"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
		Sets       []setResult `json:"sets"`
	}{prov, endToEnd, perLayer, results}, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "results.json"), doc, 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\nresults, span traces and CPU profiles: %s\n", cfg.out)
	if len(cfg.workloads) == 1 {
		fmt.Println(driverLine(results[len(results)-1].Summaries[0], cfg.trace))
	}
	return ok, nil
}

// printCheck compares two sets of the same code, metric by metric. A
// pair is "different" (and the check fails) when the medians differ by
// more than the metric's bound; it is "unresolved", not "equal", when
// either set's own spread exceeds the bound, because then the
// comparison could not have told. Simulated metrics must agree exactly.
func printCheck(a, b []*summary) bool {
	ok := true
	fmt.Printf("\n== check: two sets of the same code\n")
	fmt.Printf("  %-15s %-16s %12s %9s %12s %9s %8s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "delta", "verdict")
	for i := range a {
		for _, d := range endToEnd {
			va, vb := a[i].Samples[d.Name], b[i].Samples[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			delta := ratio(mb-ma, ma)
			verdict := "equal"
			switch {
			case simulated(d.Name):
				if ma != mb {
					verdict = "DIFFERENT (simulated results must repeat exactly)"
				}
			case delta > d.Bound || delta < -d.Bound:
				verdict = "DIFFERENT"
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
			}
			if strings.HasPrefix(verdict, "DIFFERENT") {
				ok = false
			}
			fmt.Printf("  %-15s %-16s %12.6g %8.2f%% %12.6g %8.2f%% %+7.2f%%  %s\n",
				a[i].Workload, d.Name, ma, 100*spread(va), mb, 100*spread(vb), 100*delta, verdict)
		}
		if a[i].Digest != b[i].Digest {
			ok = false
			fmt.Printf("  %-15s sim_digest %s vs %s  DIFFERENT\n", a[i].Workload, a[i].Digest, b[i].Digest)
		}
	}
	return ok
}
