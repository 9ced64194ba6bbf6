package experiments

import (
	"bytes"
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
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "tab5", "tab6", "mem", "lat", "shard",
		"ab-sched", "ab-fetch", "ab-policy", "ab-done"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Errorf("IDs = %v", IDs())
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
	if out.Workload == nil || out.Workload.Ops == 0 {
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

func TestAbEvictRegistered(t *testing.T) {
	if _, ok := Lookup("ab-evict"); !ok {
		t.Error("ab-evict not registered")
	}
}
