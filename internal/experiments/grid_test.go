package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestGridDeterminism is the contract the parallel runner must keep: a
// figure rendered with one worker is byte-identical to the same figure
// rendered with eight. Cells are isolated engines and results are
// reassembled in input order, so -j must only change wall-clock time.
func TestGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 sweep in -short mode")
	}
	render := func(workers int) string {
		var b bytes.Buffer
		if err := runFig2(&RunConfig{Scale: ScaleTiny, Workers: workers}, &b); err != nil {
			t.Fatalf("fig2 with %d workers: %v", workers, err)
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("fig2 output differs between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Error("fig2 rendered nothing")
	}
}

// TestGridOrderProperty checks the reassembly invariant directly: for
// random cell counts and worker counts, with cells completing in a
// shuffled order (random real-time sleeps), results always come back in
// input order with the outcome of the matching cell.
func TestGridOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		workers := 1 + rng.Intn(12)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
		}
		c := &RunConfig{Scale: ScaleTiny, Workers: workers}
		results := c.runCells(n, func(i int) (*Outcome, error) {
			time.Sleep(delays[i]) // shuffle completion order
			return &Outcome{Util: float64(i)}, nil
		})
		if len(results) != n {
			t.Fatalf("trial %d: %d results for %d cells", trial, len(results), n)
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("trial %d: results[%d].Index = %d", trial, i, r.Index)
			}
			if r.Err != nil || r.Outcome == nil || r.Outcome.Util != float64(i) {
				t.Fatalf("trial %d: results[%d] holds cell %v's outcome", trial, i, r.Outcome)
			}
		}
	}
}

// TestGridErrorAggregation: failed cells carry their own error, healthy
// cells still produce outcomes, and FirstErr reports the lowest-indexed
// failure no matter which cell failed first in real time.
func TestGridErrorAggregation(t *testing.T) {
	boom := errors.New("boom")
	c := &RunConfig{Scale: ScaleTiny, Workers: 4}
	results := c.runCells(10, func(i int) (*Outcome, error) {
		if i%3 == 1 { // cells 1, 4, 7 fail
			return nil, fmt.Errorf("cell %d: %w", i, boom)
		}
		return &Outcome{Util: float64(i)}, nil
	})
	for i, r := range results {
		if i%3 == 1 {
			if !errors.Is(r.Err, boom) {
				t.Errorf("cell %d: err = %v, want boom", i, r.Err)
			}
		} else if r.Err != nil || r.Outcome == nil {
			t.Errorf("cell %d: unexpected %v / %v", i, r.Outcome, r.Err)
		}
	}
	err := FirstErr(results)
	if !errors.Is(err, boom) || err == nil {
		t.Fatalf("FirstErr = %v", err)
	}
	if want := "grid cell 1:"; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("FirstErr = %q, want prefix %q", err, want)
	}
}

func TestGridEmptyAndSingle(t *testing.T) {
	c := &RunConfig{Scale: ScaleTiny, Workers: 3}
	if got := c.runCells(0, func(int) (*Outcome, error) { return nil, nil }); len(got) != 0 {
		t.Errorf("empty grid returned %d results", len(got))
	}
	got := c.RunGrid([]RunSpec{{
		Env:   EnvSpec{Scale: ScaleTiny, Seed: 1, TargetUtil: 0},
		Tasks: []TaskName{TaskScrub},
	}})
	if len(got) != 1 || got[0].Err != nil || got[0].Outcome == nil {
		t.Fatalf("single-cell grid: %+v", got)
	}
	if !got[0].Outcome.Completed() {
		t.Error("idle scrub cell did not complete")
	}
}
