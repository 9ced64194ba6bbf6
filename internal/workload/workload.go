// Package workload generates foreground I/O in the style of the Filebench
// personalities the paper evaluates with (§6.1.1):
//
//   - webserver: read-mostly, 10:1 read-write ratio, all writes appending
//     to a single log file;
//   - webproxy: read-heavy, 4:1, with file appends, deletes and creates;
//   - fileserver: write-heavy, 1:2, overwriting and deleting files.
//
// The three knobs the paper varies are first-class here: *data overlap*
// (the Coverage fraction of files the workload ever touches), *file
// access distribution* (uniform or the skewed MS-trace models), and *I/O
// rate* (ops/sec throttling, calibrated by the experiment harness to hit
// a target device utilization).
//
// The generator is filesystem-agnostic (see Target); NewCow and NewLFS
// build it over the two simulated filesystems.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"duet/internal/cowfs"
	"duet/internal/lfs"
	"duet/internal/sim"
	"duet/internal/trace"
)

// Owner labels workload I/O on the device.
const Owner = "workload"

// Personality selects the operation mix.
type Personality string

// The three personalities of §6.1.1.
const (
	Webserver  Personality = "webserver"
	Webproxy   Personality = "webproxy"
	Fileserver Personality = "fileserver"
)

// Personalities lists them in the paper's order.
func Personalities() []Personality { return []Personality{Webserver, Webproxy, Fileserver} }

// ReadWriteRatio returns the nominal read:write ratio of a personality.
func (p Personality) ReadWriteRatio() (r, w int) {
	switch p {
	case Webserver:
		return 10, 1
	case Webproxy:
		return 4, 1
	case Fileserver:
		return 1, 2
	}
	return 1, 1
}

// Config describes a workload.
type Config struct {
	Personality Personality
	// Dir is the directory holding the workload's files (cowfs targets).
	Dir string
	// Coverage is the fraction of the population the workload ever
	// accesses — the "data overlap with maintenance" knob (§6.1.1). 1.0
	// touches everything.
	Coverage float64
	// Dist picks files within the covered subset (uniform default).
	Dist trace.Distribution
	// OpsPerSec throttles the workload; 0 means unthrottled (back to
	// back operations).
	OpsPerSec float64
	// Name disambiguates multiple generators' rng streams.
	Name string
}

// appendPages is the size of every append operation, in pages.
const appendPages = 2

// Stats counts workload activity.
type Stats struct {
	Ops          int64
	Reads        int64
	Writes       int64
	Deletes      int64
	Creates      int64
	Errors       int64
	TotalLatency sim.Time
	MaxLatency   sim.Time
}

// MeanLatency returns the average operation latency.
func (s *Stats) MeanLatency() sim.Time {
	if s.Ops == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(s.Ops)
}

// Generator drives one workload against a Target.
type Generator struct {
	target  Target
	cfg     Config
	stats   Stats
	stopped bool
}

func fillDefaults(cfg *Config) {
	if cfg.Coverage <= 0 || cfg.Coverage > 1 {
		cfg.Coverage = 1
	}
	if cfg.Dist == nil {
		cfg.Dist = trace.Uniform{}
	}
	if cfg.Name == "" {
		cfg.Name = string(cfg.Personality)
	}
}

// New prepares a generator over a cowfs population (the files created by
// machine.Populate). The covered subset is a deterministic,
// seed-dependent sample of Coverage × len(files).
func New(e sim.Host, fs *cowfs.FS, files []*cowfs.Inode, cfg Config) (*Generator, error) {
	if len(files) == 0 {
		return nil, errors.New("workload: empty population")
	}
	fillDefaults(&cfg)
	rng := e.DeriveRand("workload-coverage:" + cfg.Name)
	idx := rng.Perm(len(files))
	k := int(cfg.Coverage * float64(len(files)))
	if k < 1 {
		k = 1
	}
	covered := make([]*cowfs.Inode, 0, k)
	for _, i := range idx[:k] {
		covered = append(covered, files[i])
	}
	return &Generator{target: NewCowTarget(fs, covered, cfg.Dir, cfg.Name), cfg: cfg}, nil
}

// NewLFS prepares a generator over an lfs population.
func NewLFS(e sim.Host, fs *lfs.FS, files []*lfs.Inode, cfg Config) (*Generator, error) {
	if len(files) == 0 {
		return nil, errors.New("workload: empty population")
	}
	fillDefaults(&cfg)
	rng := e.DeriveRand("workload-coverage:" + cfg.Name)
	covered := CoverLFS(rng, files, cfg.Coverage)
	return &Generator{target: NewLFSTarget(fs, covered, cfg.Name), cfg: cfg}, nil
}

// Stats returns a copy of the statistics so far. The copy does not keep
// the generator (or the filesystem it drives) reachable.
func (g *Generator) Stats() *Stats {
	s := g.stats
	return &s
}

// Rate returns the throttle in ops/sec (0 = unthrottled).
func (g *Generator) Rate() float64 { return g.cfg.OpsPerSec }

// CoveredFiles returns the covered cowfs subset (nil for lfs targets).
func (g *Generator) CoveredFiles() []*cowfs.Inode {
	if ct, ok := g.target.(*CowTarget); ok {
		return ct.Files()
	}
	return nil
}

// CoveredPages returns the total pages in the covered subset.
func (g *Generator) CoveredPages() int64 {
	var n int64
	switch t := g.target.(type) {
	case *CowTarget:
		for _, f := range t.files {
			n += f.SizePg
		}
	case *LFSTarget:
		for _, f := range t.files {
			n += f.SizePg
		}
	}
	return n
}

// Stop halts the generator after its current operation.
func (g *Generator) Stop() { g.stopped = true }

// Start launches the generator process.
func (g *Generator) Start(e sim.Host) {
	e.Go("workload:"+g.cfg.Name, g.run)
}

func (g *Generator) run(p *sim.Proc) {
	rng := p.Engine().DeriveRand("workload-ops:" + g.cfg.Name)
	for !g.stopped && !p.Engine().Stopping() {
		start := p.Now()
		if err := g.step(p, rng); err != nil {
			g.stats.Errors++
		}
		g.stats.Ops++
		lat := p.Now() - start
		g.stats.TotalLatency += lat
		if lat > g.stats.MaxLatency {
			g.stats.MaxLatency = lat
		}
		if g.cfg.OpsPerSec > 0 {
			// Exponential think time with mean 1/rate (Poisson-ish).
			mean := float64(sim.Second) / g.cfg.OpsPerSec
			d := sim.Time(rng.ExpFloat64() * mean)
			if d > 0 {
				p.Sleep(d)
			} else {
				p.Yield()
			}
		} else {
			p.Yield()
		}
	}
}

// step executes one operation according to the personality mix.
func (g *Generator) step(p *sim.Proc, rng *rand.Rand) error {
	pick := func() int { return g.cfg.Dist.Pick(rng, g.target.Len()) }
	switch g.cfg.Personality {
	case Webserver:
		// 10 reads : 1 append (to the single log).
		if rng.Intn(11) == 0 {
			g.stats.Writes++
			return g.target.AppendLog(p, appendPages)
		}
		g.stats.Reads++
		return g.target.ReadWhole(p, pick())
	case Webproxy:
		// Filebench webproxy: per loop, delete+create+append one file and
		// read five. Flattened to per-op probabilities with a 4:1 ratio:
		// 80% reads; writes split between appends and delete/recreate.
		switch r := rng.Intn(20); {
		case r < 16:
			g.stats.Reads++
			return g.target.ReadWhole(p, pick())
		case r < 19:
			g.stats.Writes++
			return g.target.Append(p, pick(), appendPages)
		default:
			g.stats.Deletes++
			g.stats.Creates++
			g.stats.Writes++
			return g.target.Recreate(p, pick())
		}
	case Fileserver:
		// 1:2 read-write: 33% whole-file reads; writes split between
		// whole-file overwrites, appends, and delete/recreate.
		switch r := rng.Intn(15); {
		case r < 5:
			g.stats.Reads++
			return g.target.ReadWhole(p, pick())
		case r < 10:
			g.stats.Writes++
			return g.target.Overwrite(p, pick())
		case r < 13:
			g.stats.Writes++
			return g.target.Append(p, pick(), appendPages)
		default:
			g.stats.Deletes++
			g.stats.Creates++
			g.stats.Writes++
			return g.target.Recreate(p, pick())
		}
	}
	return fmt.Errorf("workload: unknown personality %q", g.cfg.Personality)
}
