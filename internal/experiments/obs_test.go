package experiments

import (
	"bytes"
	"io"
	"testing"

	"duet/internal/obs"
)

// metricsDump renders a registry as the -metrics text file.
func metricsDump(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteMetricsText(&b, reg); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestObsMergeDeterminism mirrors TestGridDeterminism for the metrics
// registry: the run-level registry assembled from per-cell merges must
// be byte-identical whether cells complete sequentially (workers=1) or
// in whatever order an eight-worker pool produces. Cells are folded in
// input order, so worker interleaving may only change wall-clock time.
func TestObsMergeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 sweep in -short mode")
	}
	run := func(workers int) string {
		c := &RunConfig{Scale: ScaleTiny, Workers: workers, Obs: NewCollector(false)}
		if err := runFig2(c, io.Discard); err != nil {
			t.Fatalf("fig2 with %d workers: %v", workers, err)
		}
		return metricsDump(t, c.Obs.Metrics)
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Errorf("merged registry differs between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Error("registry collected nothing")
	}
}

// TestObsCellAccounting checks that per-cell observability reaches the
// run registry at all: cells are counted, and counters from the major
// subsystems (engine, storage, page cache, Duet, filesystem, tasks)
// all report through one sweep.
func TestObsCellAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	c := &RunConfig{Scale: ScaleTiny, Obs: NewCollector(false)}
	if err := runFig2(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	reg := c.Obs.Metrics
	if n := reg.Counter("grid.cells").Value(); n == 0 {
		t.Fatal("no cells merged into the run registry")
	}
	out := metricsDump(t, reg)
	for _, prefix := range []string{"sim.", "storage.", "pagecache.", "duet.", "cowfs.", "task."} {
		if !bytes.Contains([]byte(out), []byte("counter "+prefix)) {
			t.Errorf("no %s* counters in merged registry:\n%s", prefix, out)
		}
	}
	if c.Obs.Traces != nil {
		t.Error("a collector without tracing gathered traces")
	}
}

// TestObsDisabledByDefault guards the zero-cost default: a run without a
// collector gives every cell a nil obs handle, and cells hand nothing
// back.
func TestObsDisabledByDefault(t *testing.T) {
	c := tinyRun()
	if o := c.newObs(); o != nil {
		t.Fatal("cells must get a nil obs handle when the run has no collector")
	}
	got := c.RunGrid([]RunSpec{{
		Env:   EnvSpec{Scale: ScaleTiny, Seed: 1, TargetUtil: 0},
		Tasks: []TaskName{TaskScrub},
	}})
	if err := FirstErr(got); err != nil {
		t.Fatal(err)
	}
	if co := got[0].Outcome.obs; co.reg != nil || co.traces != nil {
		t.Fatalf("cell without a collector handed back %+v", co)
	}
}

// TestTab5FanOutDeterminism: tab5 fans its adaptive scans out across the
// workers, so scans finish in any order; the trace list and the merged
// registry must not depend on it.
func TestTab5FanOutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced tab5 runs in -short mode")
	}
	run := func(workers int) ([]string, string) {
		c := &RunConfig{Scale: ScaleTiny, Workers: workers, Obs: NewCollector(true)}
		if err := runTab5(c, io.Discard); err != nil {
			t.Fatalf("tab5 with %d workers: %v", workers, err)
		}
		var names []string
		for _, tp := range c.Obs.Traces {
			names = append(names, tp.Name)
		}
		return names, metricsDump(t, c.Obs.Metrics)
	}
	serialNames, serialReg := run(1)
	parallelNames, parallelReg := run(4)
	if len(serialNames) == 0 {
		t.Fatal("traced tab5 collected no trace processes")
	}
	if len(serialNames) != len(parallelNames) {
		t.Fatalf("%d trace processes at workers=1, %d at workers=4", len(serialNames), len(parallelNames))
	}
	for i := range serialNames {
		if serialNames[i] != parallelNames[i] {
			t.Fatalf("trace process %d is %q at workers=1, %q at workers=4", i, serialNames[i], parallelNames[i])
		}
	}
	if serialReg != parallelReg {
		t.Errorf("merged registry differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s", serialReg, parallelReg)
	}
}
