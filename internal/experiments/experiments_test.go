package experiments

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/workload"
)

// tinyRun is a tiny-scale run with default workers and no collector.
func tinyRun() *RunConfig { return &RunConfig{Scale: ScaleTiny} }

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "full", ""} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("bogus scale resolved")
	}
}

func TestUtilsSweep(t *testing.T) {
	u := ScaleTiny.Utils()
	if len(u) != 5 || u[0] != 0 || u[len(u)-1] != 1 {
		t.Errorf("Utils = %v", u)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ab-done", "ab-fetch", "ab-sched", "cluster", "faults",
		"fig1", "fig10", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "lat", "mem", "tab5", "tab6"}
	got := IDs()
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("sorted IDs = %v\nwant %v", got, want)
	}
}

func TestCalibrationConverges(t *testing.T) {
	spec := EnvSpec{Scale: ScaleTiny, Personality: workload.Webserver, TargetUtil: 0.5}
	rate, err := calibrateRate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %v", rate)
	}
	// Verify the calibrated rate actually lands near the target.
	u, err := measureUtil(spec, rate)
	if err != nil {
		t.Fatal(err)
	}
	if u < 0.35 || u > 0.65 {
		t.Errorf("calibrated util = %.2f, want ~0.5", u)
	}
	// Cached on second call.
	r2, err := calibrateRate(spec)
	if err != nil || r2 != rate {
		t.Errorf("cache miss: %v vs %v (%v)", r2, rate, err)
	}
	// Edge targets.
	if r, _ := calibrateRate(EnvSpec{Scale: ScaleTiny, TargetUtil: 0}); r != -1 {
		t.Errorf("target 0 rate = %v", r)
	}
	if r, _ := calibrateRate(EnvSpec{Scale: ScaleTiny, TargetUtil: 1}); r != 0 {
		t.Errorf("target 1 rate = %v", r)
	}
}

// TestCellBuilder: the builder of hand-made cells resolves the workload
// from the target utilization — none at or below 0, unthrottled at or
// above 1 without a calibration probe, the memoized calibrated rate in
// between — and every cell records the /data root.
func TestCellBuilder(t *testing.T) {
	memoKeys := func() (n int) {
		calMemo.Range(func(any, any) bool { n++; return true })
		return n
	}
	for _, tc := range []struct {
		name      string
		target    float64
		gen       bool // a workload generator is built
		calibrate bool // its rate comes from the calibration memo
	}{
		{"no workload", 0, false, false},
		{"unthrottled", 1, true, false},
		{"throttled", 0.5, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := EnvSpec{Scale: ScaleTiny, Seed: 1, Personality: workload.Webserver, TargetUtil: tc.target}
			keys := memoKeys()
			e, err := tinyRun().cell(spec)
			if err != nil {
				t.Fatal(err)
			}
			if path, err := e.m.FS.PathOf(e.root.Ino); err != nil || path != "/data" || !e.root.Dir {
				t.Errorf("root = %q (%v), want the /data directory", path, err)
			}
			if !tc.calibrate && memoKeys() != keys {
				t.Errorf("calibration memo grew from %d to %d keys", keys, memoKeys())
			}
			if (e.gen != nil) != tc.gen {
				t.Fatalf("generator built = %v, want %v", e.gen != nil, tc.gen)
			}
			if e.gen == nil {
				return
			}
			want := 0.0
			if tc.calibrate {
				if want, err = calibrateRate(spec); err != nil || want <= 0 {
					t.Fatalf("calibrateRate = %v, %v", want, err)
				}
			}
			if got := e.gen.Rate(); got != want {
				t.Errorf("rate = %v, want %v", got, want)
			}
		})
	}
}

// TestCalibrateOncePerKey: concurrent cells that need one calibration
// share a single bisection, and every one of them gets its rate.
func TestCalibrateOncePerKey(t *testing.T) {
	measure := func(calls *atomic.Int64) func(float64) (float64, error) {
		return func(rate float64) (float64, error) {
			calls.Add(1)
			time.Sleep(100 * time.Microsecond) // let the other callers arrive
			return rate / 1000, nil
		}
	}
	var solo atomic.Int64
	want, err := bisectRate(0.5, measure(&solo))
	if err != nil || solo.Load() == 0 {
		t.Fatalf("bisectRate = %v, %v after %d probes", want, err, solo.Load())
	}
	type testKey struct{ name string }
	var calls atomic.Int64
	rates := make([]float64, 16)
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rates[i], errs[i] = calibrate(testKey{t.Name()}, 0.5, measure(&calls))
		}(i)
	}
	wg.Wait()
	if calls.Load() != solo.Load() {
		t.Errorf("%d callers ran %d probes, one bisection is %d", len(rates), calls.Load(), solo.Load())
	}
	for i := range rates {
		if errs[i] != nil || rates[i] != want {
			t.Errorf("caller %d: rate %v, err %v; want %v", i, rates[i], errs[i], want)
		}
	}
}

func TestRunScrubIdleCompletes(t *testing.T) {
	out, err := runTasks(tinyRun(), RunSpec{
		Env:   EnvSpec{Scale: ScaleTiny, Seed: 1, TargetUtil: 0},
		Tasks: []TaskName{TaskScrub},
		Duet:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed() {
		t.Error("idle-device scrub did not complete")
	}
	if out.Util != 0 {
		t.Errorf("util = %v with no workload", out.Util)
	}
	if got := out.IOSaved(); got != 0 {
		t.Errorf("baseline IOSaved = %v", got)
	}
	if out.WorkCompleted() != 1 {
		t.Errorf("WorkCompleted = %v", out.WorkCompleted())
	}
}

func TestRunScrubDuetSavesUnderWorkload(t *testing.T) {
	out, err := runTasks(tinyRun(), RunSpec{
		Env: EnvSpec{Scale: ScaleTiny, Seed: 1, Personality: workload.Webserver,
			Coverage: 1.0, TargetUtil: 0.5},
		Tasks: []TaskName{TaskScrub},
		Duet:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.IOSaved() <= 0 {
		t.Error("duet scrub saved nothing at 50% util")
	}
	if out.Util < 0.2 || out.Util > 0.8 {
		t.Errorf("measured util = %.2f", out.Util)
	}
	if out.Workload.Ops == 0 {
		t.Error("workload did not run")
	}
}

func TestConcurrentTasksShareOnePass(t *testing.T) {
	// The Figure 5 mechanism: scrub + backup with Duet and NO workload
	// save a large fraction because whichever task reads a block first
	// covers the other.
	out, err := runTasks(tinyRun(), RunSpec{
		Env:   EnvSpec{Scale: ScaleTiny, Seed: 1, TargetUtil: 0},
		Tasks: []TaskName{TaskScrub, TaskBackup},
		Duet:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.IOSaved(); got < 0.3 {
		t.Errorf("IOSaved = %.3f, want >= 0.3 (shared pass)", got)
	}
	if !out.Completed() {
		t.Error("tasks did not complete on an idle device")
	}
	// Baseline comparison: two full passes, nothing saved.
	base, err := runTasks(tinyRun(), RunSpec{
		Env:   EnvSpec{Scale: ScaleTiny, Seed: 1, TargetUtil: 0},
		Tasks: []TaskName{TaskScrub, TaskBackup},
		Duet:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.IOSaved() != 0 {
		t.Errorf("baseline IOSaved = %v", base.IOSaved())
	}
	if out.Elapsed >= base.Elapsed {
		t.Errorf("duet elapsed %v >= baseline %v (should finish faster)", out.Elapsed, base.Elapsed)
	}
}

func TestFig1Renders(t *testing.T) {
	var b bytes.Buffer
	if err := runFig1(tinyRun(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"ms-dev0", "ms-dev1", "ms-dev2", "uniform"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestGCCleanStatsDuetReadsLess(t *testing.T) {
	g := gcScaleFor(ScaleTiny)
	g.window = 20 * 1e9 // 20 virtual seconds
	rate, err := calibrateLFSRate(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bt, br, err := gcCleanStats(tinyRun(), g, 1, rate, false)
	if err != nil {
		t.Fatal(err)
	}
	dt, dr, err := gcCleanStats(tinyRun(), g, 1, rate, true)
	if err != nil {
		t.Fatal(err)
	}
	if bt == 0 || dt == 0 {
		t.Skipf("cleaner idle in tiny window (baseline=%v duet=%v)", bt, dt)
	}
	if dr > br {
		t.Errorf("duet reads/seg %.1f > baseline %.1f", dr, br)
	}
}

func TestMaxUtilizationDuetAtLeastBaseline(t *testing.T) {
	row := tab5Row{personality: workload.Webserver, overlap: 1.0, dist: "uniform"}
	base, _, err := maxUtilization(tinyRun(), row, TaskScrub, false)
	if err != nil {
		t.Fatal(err)
	}
	duet, _, err := maxUtilization(tinyRun(), row, TaskScrub, true)
	if err != nil {
		t.Fatal(err)
	}
	if duet < base {
		t.Errorf("duet max util %.2f < baseline %.2f", duet, base)
	}
}

// TestMaxUtilizationStopsAtFirstFailingSeed runs one Table 5 scan with two
// seeds: no seed runs after a level's first failure, and the answer
// equals the one every (level, seed) cell gives.
func TestMaxUtilizationStopsAtFirstFailingSeed(t *testing.T) {
	sc := ScaleTiny
	sc.Seeds = 2
	c := &RunConfig{Scale: sc}
	row := tab5Row{personality: workload.Webserver, overlap: 1.0, dist: "uniform"}
	utils, nSeeds := sc.Utils(), len(seeds(sc))
	want, wantCells, skipped := -1.0, 0, 0
	for i := len(utils) - 1; i >= 0 && want < 0; i-- {
		firstFail := -1
		for j, seed := range seeds(sc) {
			out, err := runTasks(c, RunSpec{
				Env: EnvSpec{Scale: sc, Seed: seed, Personality: row.personality,
					Dist: row.dist, Coverage: row.overlap, TargetUtil: utils[i]},
				Tasks: []TaskName{TaskBackup},
			})
			if err != nil {
				t.Fatal(err)
			}
			if firstFail < 0 && !out.Completed() {
				firstFail = j
			}
		}
		if firstFail < 0 {
			want, wantCells = utils[i], wantCells+nSeeds
			continue
		}
		wantCells += firstFail + 1
		skipped += nSeeds - firstFail - 1
	}
	if skipped == 0 {
		t.Fatal("no level of this scan fails before its last seed; the test checks nothing")
	}
	got, ran, err := maxUtilization(c, row, TaskBackup, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("max util %.2f, every seed run gives %.2f", got, want)
	}
	if len(ran) != wantCells {
		t.Errorf("ran %d cells, want %d (%d seeds skipped after a level's first failure)", len(ran), wantCells, skipped)
	}
}
