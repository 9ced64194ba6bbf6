package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment grids — overlap × utilization × seed × {baseline, Duet}
// — are embarrassingly parallel: every cell builds its own deterministic
// sim.Engine and shares nothing with its neighbours except the
// calibration memo. gridEach fans work out across a worker pool, and
// callers consume and fold results in input order, so a run renders
// byte-identical output, metrics and traces at any worker count.
//
// Parallelism exists only BETWEEN engines: inside one engine exactly one
// simulated process runs at a time (see internal/sim), and that
// invariant is untouched here.

// RunConfig is one run of the experiments: everything a cell needs to
// know besides its own spec.
type RunConfig struct {
	Scale Scale
	// Workers is the grid worker count; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives a one-line progress report as grid
	// cells complete. It must not share a stream with experiment output:
	// figures are rendered to stdout and must stay byte-identical across
	// worker counts.
	Progress io.Writer
	// Obs, when non-nil, collects every cell's metrics and traces.
	Obs *Collector
}

// cellsRun counts cells folded process-wide, for the benchmark's
// per-layer "experiments.cells" figure.
var cellsRun atomic.Int64

// CellsRun returns the total number of cells executed so far.
func CellsRun() int64 { return cellsRun.Load() }

// CellResult is one grid cell's outcome, tagged with the index of the
// RunSpec that produced it.
type CellResult struct {
	Index   int
	Outcome *Outcome
	Err     error
}

// RunGrid executes every cell on c's workers and returns the results in
// input order: results[i] corresponds to cells[i] regardless of
// completion order. Errors are aggregated per cell rather than aborting
// the grid; FirstErr collapses them for callers that want fail-fast
// semantics. The successful cells are folded into c in input order.
func (c *RunConfig) RunGrid(cells []RunSpec) []CellResult {
	results := c.runCells(len(cells), func(i int) (*Outcome, error) {
		return runTasks(c, cells[i])
	})
	for _, r := range results {
		if r.Err == nil {
			c.fold(r.Outcome.obs)
		}
	}
	return results
}

// FirstErr returns the error of the lowest-indexed failed cell, or nil.
// Using input order (not completion order) keeps the reported error
// deterministic across worker counts.
func FirstErr(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("grid cell %d: %w", r.Index, r.Err)
		}
	}
	return nil
}

// runCells is the executor behind RunGrid; tests inject run functions
// with shuffled completion times to check result ordering.
func (c *RunConfig) runCells(n int, run func(int) (*Outcome, error)) []CellResult {
	results := make([]CellResult, n)
	c.gridEach(n, func(i int) {
		out, err := run(i)
		results[i] = CellResult{Index: i, Outcome: out, Err: err}
	})
	return results
}

// gridEach runs fn(i) for every i in [0, n) on c.Workers goroutines and
// returns when all calls have. It is the package's only parallel-for:
// RunGrid runs one RunSpec per call, runTab5 one adaptive scan.
func (c *RunConfig) gridEach(n int, fn func(int)) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next, done atomic.Int64
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
				d := done.Add(1)
				if c.Progress == nil || n < 2 {
					continue
				}
				progressMu.Lock()
				fmt.Fprintf(c.Progress, "\r    grid: %d/%d cells", d, n)
				if d == int64(n) {
					fmt.Fprintf(c.Progress, "\r%*s\r", 30+2*len(fmt.Sprint(n)), "")
				}
				progressMu.Unlock()
			}
		}()
	}
	wg.Wait()
}
