//go:build go1.24

package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFinishedCellIsCollectable checks that a grid's results do not keep
// its cells' machines alive: once the grid has returned, a cleanup on
// each cell's filesystem runs while the results are still in use. (A
// runtime.SetFinalizer finaliser would never run here: the filesystem is
// in reference cycles, with its page cache and its VFS hooks, and Go
// runs no finaliser on an object in a cycle. runtime.AddCleanup, Go
// 1.24, has no such limit.)
func TestFinishedCellIsCollectable(t *testing.T) {
	const n = 2
	c := &RunConfig{Scale: ScaleTiny, Workers: n}
	var collected atomic.Int32
	results := c.runCells(n, func(i int) (*Outcome, error) {
		e, err := c.cell(EnvSpec{Scale: ScaleTiny, Seed: int64(i + 1), TargetUtil: 1})
		if err != nil {
			return nil, err
		}
		runtime.AddCleanup(e.m.FS, func(int) { collected.Add(1) }, 0)
		return runTasksOn(e, []TaskName{TaskScrub, TaskBackup, TaskDefrag}, true, c.Scale.Window)
	})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finished cells' filesystems were collected", collected.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	for i, r := range results {
		if len(r.Outcome.Reports()) != 3 || r.Outcome.Workload.Ops == 0 {
			t.Errorf("cell %d: %d reports, %d workload ops", i, len(r.Outcome.Reports()), r.Outcome.Workload.Ops)
		}
	}
}
