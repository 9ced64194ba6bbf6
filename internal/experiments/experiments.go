// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is registered in All and renders the
// same rows/series the paper reports as plain text.
//
// Scales: the paper ran 30-minute windows over 50 GB of data with a 2 GB
// page cache on a 300 GB 10K RPM drive. ScaleSmall reproduces the
// *ratios* that drive the results at laptop cost: the cache:data ratio
// (~4%), the fraction of the window that maintenance work occupies
// (scrubbing ≈ 20%, backup ≈ 2× scrubbing), and the device's
// sequential:random performance ratio (via a uniformly slowed HDD model).
// ScaleFull approximates the paper's absolute numbers and is reachable
// from cmd/duetbench -scale=full.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"duet/internal/cowfs"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
	"duet/internal/tasks/backup"
	"duet/internal/tasks/defrag"
	"duet/internal/tasks/scrub"
	"duet/internal/trace"
	"duet/internal/workload"
)

// Scale sizes an experiment.
type Scale struct {
	Name         string
	DataPages    int64    // population size
	DeviceBlocks int64    // device capacity
	CachePages   int      // page cache budget (~4% of data, like the paper)
	Window       sim.Time // the paper's 30-minute experiment window
	Seeds        int      // repetitions (the paper averages 3 runs)
	DeviceSlow   float64  // device latency multiplier (see package doc)
	UtilStep     float64  // utilization sweep granularity
}

// ScaleTiny is for unit tests of the harness itself.
var ScaleTiny = Scale{
	Name:         "tiny",
	DataPages:    16384, // 64 MiB
	DeviceBlocks: 65536, // 256 MiB
	CachePages:   1024,  // 4 MiB
	Window:       30 * sim.Second,
	Seeds:        1,
	DeviceSlow:   4,
	UtilStep:     0.25,
}

// ScaleSmall is the default for benchmarks and cmd/duetbench.
var ScaleSmall = Scale{
	Name:         "small",
	DataPages:    196608, // 768 MiB
	DeviceBlocks: 524288, // 2 GiB
	CachePages:   8192,   // 32 MiB ≈ 4.2% of data
	Window:       120 * sim.Second,
	Seeds:        2,
	DeviceSlow:   4,
	UtilStep:     0.1,
}

// ScaleMedium sits between small and full: four times small's data and
// a longer window, while a single cell still finishes in minutes.
var ScaleMedium = Scale{
	Name:         "medium",
	DataPages:    786432,  // 3 GiB
	DeviceBlocks: 2097152, // 8 GiB
	CachePages:   32768,   // 128 MiB ≈ 4.2% of data
	Window:       300 * sim.Second,
	Seeds:        2,
	DeviceSlow:   2,
	UtilStep:     0.1,
}

// ScaleFull approximates the paper's setup (50 GB data, 2 GB cache,
// 30-minute window). Expect long runtimes and several GB of memory.
var ScaleFull = Scale{
	Name:         "full",
	DataPages:    13107200, // 50 GiB
	DeviceBlocks: 16777216, // 64 GiB
	CachePages:   524288,   // 2 GiB
	Window:       30 * sim.Minute,
	Seeds:        3,
	DeviceSlow:   1,
	UtilStep:     0.1,
}

// ByName resolves a scale name.
func ByName(name string) (Scale, bool) {
	switch name {
	case "tiny":
		return ScaleTiny, true
	case "small", "":
		return ScaleSmall, true
	case "medium":
		return ScaleMedium, true
	case "full":
		return ScaleFull, true
	}
	return Scale{}, false
}

// Utils returns the utilization sweep points 0..1 at the scale's step.
func (s Scale) Utils() []float64 {
	var out []float64
	for u := 0.0; u < 1.0+1e-9; u += s.UtilStep {
		out = append(out, round2(u))
	}
	return out
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// EnvSpec describes one run's environment.
type EnvSpec struct {
	Scale       Scale
	Seed        int64
	Device      machine.DeviceKind // default HDD
	Sched       string             // default cfq
	Personality workload.Personality
	Dist        string  // trace distribution name ("uniform" default)
	Coverage    float64 // data overlap with maintenance (default 1.0)
	// TargetUtil is the paper's device-utilization knob: <= 0 disables
	// the workload, >= 1 runs it unthrottled, anything between is
	// throttled via a calibrated ops/sec rate.
	TargetUtil float64
	// FragmentedFrac overrides the populated fragmentation (default 0.1,
	// the paper's "10% fragmented file system").
	FragmentedFrac float64
}

func (s EnvSpec) withDefaults() EnvSpec {
	if s.Device == "" {
		s.Device = machine.HDD
	}
	if s.Sched == "" {
		s.Sched = "cfq"
	}
	if s.Dist == "" {
		s.Dist = "uniform"
	}
	if s.Coverage <= 0 || s.Coverage > 1 {
		s.Coverage = 1
	}
	if s.Personality == "" {
		s.Personality = workload.Webserver
	}
	if s.FragmentedFrac == 0 {
		s.FragmentedFrac = 0.1
	}
	return s
}

func (s EnvSpec) model() storage.Model {
	switch s.Device {
	case machine.SSD:
		return storage.DefaultSSD(s.Scale.DeviceBlocks).Slowed(s.Scale.DeviceSlow)
	default:
		return storage.DefaultHDD(s.Scale.DeviceBlocks).Slowed(s.Scale.DeviceSlow)
	}
}

// env is a built environment.
type env struct {
	m     *machine.Machine
	files []*cowfs.Inode
	gen   *workload.Generator // nil when TargetUtil <= 0
	spec  EnvSpec             // resolved spec (labels the cell's trace)
	obs   *obs.Obs            // nil when the run has no collector
}

// build constructs the machine, population and (rate-resolved) workload
// for one experiment cell, recording into o (nil disables; calibration
// probes pass nil so shared probes are never charged to a cell).
func build(spec EnvSpec, rate float64, o *obs.Obs) (*env, error) {
	spec = spec.withDefaults()
	m, err := machine.New(machine.Config{
		Seed:         spec.Seed,
		DeviceBlocks: spec.Scale.DeviceBlocks,
		Device:       spec.Device,
		Model:        spec.model(),
		Scheduler:    spec.Sched,
		CachePages:   spec.Scale.CachePages,
		// CFQ's slice_idle anticipation is ~8 ms on real hardware; scale
		// it with the device so idle-class starvation behaves the same
		// at reduced scales.
		IdleGrace: sim.Time(2.5 * spec.Scale.DeviceSlow * float64(sim.Millisecond)),
		Obs:       o,
	})
	if err != nil {
		return nil, err
	}
	ps := machine.DefaultPopulateSpec("/data", spec.Scale.DataPages)
	ps.FragmentedFrac = spec.FragmentedFrac
	// Larger files than the library default: with the window and device
	// scaled down, 512 KiB mean files keep the ratio of
	// workload-coverage time to scan time in the paper's regime (a
	// uniform workload must be able to touch its covered set within the
	// window at mid utilizations).
	ps.MeanFilePages = 128
	ps.Files = int(spec.Scale.DataPages / 128)
	files, err := m.Populate(ps)
	if err != nil {
		return nil, err
	}
	e := &env{m: m, files: files, spec: spec, obs: o}
	if spec.TargetUtil > 0 {
		gen, err := workload.New(m.Eng, m.FS, files, workload.Config{
			Personality: spec.Personality,
			Dir:         "/data",
			Coverage:    spec.Coverage,
			Dist:        trace.ByName(spec.Dist),
			OpsPerSec:   rate,
		})
		if err != nil {
			return nil, err
		}
		e.gen = gen
	}
	return e, nil
}

// --- utilization calibration ------------------------------------------------
//
// The paper profiles each Filebench personality at different throttle
// levels to find the rates that produce each device utilization (§6.1.2).
// calibrateRate reproduces that profiling with a bisection over ops/sec,
// measuring %util on a fresh machine per probe. Results are memoized per
// (scale, personality, distribution, coverage, device, scheduler).

type calKey struct {
	scale       string
	personality workload.Personality
	dist        string
	coverage    float64
	device      machine.DeviceKind
	sched       string
	decile      int
}

// calMemo holds one *calEntry per calibration key, for the whole
// process: a calibration is a pure function of its key (probes run on
// the fixed calSeed), so experiments and grid workers share them, and
// concurrent cells that need the same key wait for the first instead of
// bisecting again.
var calMemo sync.Map

type calEntry struct {
	once sync.Once
	rate float64
	err  error
}

const calSeed = 424242

// calibrate returns the memoized rate for key, running bisectRate over
// measure on first use.
func calibrate(key any, target float64, measure func(rate float64) (float64, error)) (float64, error) {
	v, _ := calMemo.LoadOrStore(key, &calEntry{})
	ent := v.(*calEntry)
	ent.once.Do(func() { ent.rate, ent.err = bisectRate(target, measure) })
	return ent.rate, ent.err
}

// bisectRate finds the ops/sec at which measure reaches the target
// utilization: it doubles from 16 to bound the rate, then halves the
// bracket ten times. A device that cannot reach the target below 65536
// ops/sec gets 0, unthrottled.
func bisectRate(target float64, measure func(rate float64) (float64, error)) (float64, error) {
	lo, hi := 0.0, 16.0
	for {
		u, err := measure(hi)
		if err != nil {
			return 0, err
		}
		if u >= target {
			break
		}
		lo, hi = hi, hi*2
		if hi > 65536 {
			return 0, nil
		}
	}
	for i := 0; i < 10; i++ {
		mid := (lo + hi) / 2
		u, err := measure(mid)
		if err != nil {
			return 0, err
		}
		if u < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// measureUtil runs the workload alone at the given rate and returns the
// steady-state device utilization.
func measureUtil(spec EnvSpec, rate float64) (float64, error) {
	probe := spec
	probe.Seed = calSeed
	e, err := build(probe, rate, nil)
	if err != nil {
		return 0, err
	}
	const warmup = 5 * sim.Second
	const window = 20 * sim.Second
	e.gen.Start(e.m.Eng)
	var before, after storage.Snapshot
	e.m.Eng.Go("probe", func(p *sim.Proc) {
		p.Sleep(warmup)
		before = e.m.Disk.Snapshot()
		p.Sleep(window)
		after = e.m.Disk.Snapshot()
		e.m.Eng.Stop()
	})
	if err := e.m.Eng.Run(); err != nil {
		return 0, err
	}
	return storage.UtilBetween(before, after), nil
}

// calibrateRate returns the ops/sec that produces the target utilization
// (0 for unthrottled; -1 for "no workload").
func calibrateRate(spec EnvSpec) (float64, error) {
	spec = spec.withDefaults()
	switch {
	case spec.TargetUtil <= 0:
		return -1, nil
	case spec.TargetUtil >= 0.999:
		return 0, nil // unthrottled
	}
	key := calKey{
		scale: spec.Scale.Name, personality: spec.Personality, dist: spec.Dist,
		coverage: round2(spec.Coverage), device: spec.Device, sched: spec.Sched,
		decile: int(spec.TargetUtil*100 + 0.5),
	}
	return calibrate(key, spec.TargetUtil, func(rate float64) (float64, error) {
		return measureUtil(spec, rate)
	})
}

// --- task runs ---------------------------------------------------------------

// TaskName selects a maintenance task.
type TaskName string

// The cowfs maintenance tasks.
const (
	TaskScrub  TaskName = "scrub"
	TaskBackup TaskName = "backup"
	TaskDefrag TaskName = "defrag"
)

// RunSpec describes one maintenance run.
type RunSpec struct {
	Env   EnvSpec
	Tasks []TaskName
	Duet  bool
}

// Outcome captures one run's results.
type Outcome struct {
	Scrub  *scrub.Scrubber
	Backup *backup.Backup
	Defrag *defrag.Defrag
	// Util is the measured normal-class (workload) device utilization
	// over the window.
	Util float64
	// Workload is the generator's stats (nil without a workload).
	Workload *workload.Stats
	// Elapsed is how long the run lasted (≤ window; shorter when all
	// tasks finished early).
	Elapsed sim.Time
	// obs is the cell's observations, for the caller to fold.
	obs cellObs
}

// Reports returns the task reports in a stable order.
func (o *Outcome) Reports() []tasks.Report {
	var out []tasks.Report
	if o.Scrub != nil {
		out = append(out, o.Scrub.Report)
	}
	if o.Backup != nil {
		out = append(out, o.Backup.Report)
	}
	if o.Defrag != nil {
		out = append(out, o.Defrag.Report)
	}
	return out
}

// IOSaved is the paper's Table 4 metric: maintenance I/O saved divided by
// the total maintenance I/O a Duet-less run performs. Defragmentation
// counts reads and writes (2× its pages).
func (o *Outcome) IOSaved() float64 {
	var saved, total float64
	if o.Scrub != nil {
		saved += float64(o.Scrub.Report.Saved)
		total += float64(o.Scrub.Report.WorkTotal)
	}
	if o.Backup != nil {
		saved += float64(o.Backup.Report.Saved)
		total += float64(o.Backup.Report.WorkTotal)
	}
	if o.Defrag != nil {
		saved += float64(o.Defrag.Report.Saved)
		total += float64(2 * o.Defrag.Report.WorkTotal)
	}
	if total == 0 {
		return 0
	}
	return saved / total
}

// WorkCompleted is the fraction of maintenance work finished within the
// window (Figures 6 and 8).
func (o *Outcome) WorkCompleted() float64 {
	var done, total float64
	for _, r := range o.Reports() {
		done += float64(r.WorkDone)
		total += float64(r.WorkTotal)
	}
	if total == 0 {
		return 1
	}
	if done > total {
		done = total
	}
	return done / total
}

// Completed reports whether every task finished its work list.
func (o *Outcome) Completed() bool {
	for _, r := range o.Reports() {
		if !r.Completed {
			return false
		}
	}
	return true
}

// runTasks executes one experiment cell: populate, snapshot (for
// backup), start the workload, run the tasks concurrently, stop at the
// window (or when all tasks finish).
func runTasks(c *RunConfig, spec RunSpec) (*Outcome, error) {
	rate, err := calibrateRate(spec.Env)
	if err != nil {
		return nil, err
	}
	envSpec := spec.Env
	if rate < 0 {
		envSpec.TargetUtil = 0 // no workload
	}
	e, err := build(envSpec, rate, c.newObs())
	if err != nil {
		return nil, err
	}
	return runTasksOn(e, spec.Tasks, spec.Duet, spec.Env.Scale.Window)
}

// runTasksOn runs the task set on a pre-built environment (ablations use
// this to customise the machine first). The outcome carries the cell's
// observations for the caller to fold.
func runTasksOn(e *env, taskNames []TaskName, duet bool, window sim.Time) (*Outcome, error) {
	eng := e.m.Eng
	out := &Outcome{}

	dataRoot, err := e.m.FS.Lookup("/data")
	if err != nil {
		return nil, err
	}

	var taskErr error
	wg := sim.NewWaitGroup(eng)
	start := eng.Now()
	var before storage.Snapshot

	eng.Go("exp-main", func(p *sim.Proc) {
		// Snapshot first (backup works on a consistent snapshot).
		var snap *cowfs.Snapshot
		for _, t := range taskNames {
			if t == TaskBackup {
				s, err := e.m.FS.CreateSnapshot(p, "/data", "/snap")
				if err != nil {
					taskErr = err
					eng.Stop()
					return
				}
				snap = s
			}
		}
		before = e.m.Disk.Snapshot()
		if e.gen != nil {
			e.gen.Start(eng)
		}
		for _, t := range taskNames {
			t := t
			wg.Add(1)
			switch t {
			case TaskScrub:
				var s *scrub.Scrubber
				if duet {
					s = scrub.NewOpportunistic(e.m.FS, scrub.DefaultConfig(), e.m.Duet, e.m.Adapter)
				} else {
					s = scrub.New(e.m.FS, scrub.DefaultConfig())
				}
				out.Scrub = s
				eng.Go("task:scrub", func(tp *sim.Proc) {
					defer wg.Done()
					if err := s.Run(tp); err != nil && taskErr == nil {
						taskErr = err
					}
				})
			case TaskBackup:
				var b *backup.Backup
				if duet {
					b = backup.NewOpportunistic(e.m.FS, snap, backup.DefaultConfig(), e.m.Duet, e.m.Adapter)
				} else {
					b = backup.New(e.m.FS, snap, backup.DefaultConfig())
				}
				out.Backup = b
				eng.Go("task:backup", func(tp *sim.Proc) {
					defer wg.Done()
					if err := b.Run(tp); err != nil && taskErr == nil {
						taskErr = err
					}
				})
			case TaskDefrag:
				var d *defrag.Defrag
				if duet {
					d = defrag.NewOpportunistic(e.m.FS, dataRoot.Ino, defrag.DefaultConfig(), e.m.Duet, e.m.Adapter)
				} else {
					d = defrag.New(e.m.FS, dataRoot.Ino, defrag.DefaultConfig())
				}
				out.Defrag = d
				eng.Go("task:defrag", func(tp *sim.Proc) {
					defer wg.Done()
					if err := d.Run(tp); err != nil && taskErr == nil {
						taskErr = err
					}
				})
			default:
				wg.Done()
				taskErr = fmt.Errorf("experiments: unknown task %q", t)
			}
		}
		wg.Wait(p)
		eng.Stop() // all tasks done before the window closed
	})

	if err := eng.RunFor(window); err != nil {
		return nil, err
	}
	if taskErr != nil {
		return nil, taskErr
	}
	after := e.m.Disk.Snapshot()
	out.Util = storage.UtilClassBetween(before, after, storage.ClassNormal)
	if e.gen != nil {
		out.Workload = e.gen.Stats()
	}
	out.Elapsed = eng.Now() - start
	for _, r := range out.Reports() {
		tasks.ObserveRun(e.obs, r)
	}
	name := fmt.Sprintf("%s %s u%02d seed%d", e.spec.Scale.Name,
		e.spec.Personality, int(e.spec.TargetUtil*100+0.5), e.spec.Seed)
	if duet {
		name += " duet"
	}
	out.obs = observe(e.obs, e.m, cellTrace(e.obs, name))
	return out, nil
}

// Experiment is a registered, runnable reproduction of one paper item.
type Experiment struct {
	// ID matches DESIGN.md's per-experiment index ("fig2", "tab5", ...).
	ID string
	// Title describes the item.
	Title string
	// Exec runs the experiment under cfg and writes the rows/series.
	Exec func(cfg *RunConfig, w io.Writer) error
}

// Workers is the worker count Experiment.Run uses. <= 0 means
// runtime.GOMAXPROCS(0). cmd/duetbench passes its -j flag in a RunConfig
// instead; the benchmark module still sets this.
var Workers int

// Run executes at scale s on Workers workers with no collector. The
// benchmark module compiles against it.
func (e Experiment) Run(s Scale, w io.Writer) error {
	return e.Exec(&RunConfig{Scale: s, Workers: Workers}, w)
}

// All lists every experiment, in paper order.
var All []Experiment

func register(e Experiment) { All = append(All, e) }

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(All))
	for i, e := range All {
		out[i] = e.ID
	}
	return out
}

// seeds returns the per-scale seed list.
func seeds(s Scale) []int64 {
	n := s.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}
