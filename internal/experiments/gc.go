package experiments

import (
	"fmt"
	"io"
	"sync"

	"duet/internal/lfs"
	"duet/internal/machine"
	"duet/internal/metrics"
	"duet/internal/obs"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks/gcduet"
	"duet/internal/workload"
)

// Table 6 (§6.2): segment cleaning time with and without Duet, under the
// fileserver workload at 40–70% device utilization. The opportunistic
// collector prefers victims whose valid blocks are cached, so its
// cleaning time drops as the workload heats the cache; the baseline's
// stays roughly flat.

// gcScale derives the lfs geometry from a Scale: a fraction of the cowfs
// data size, 2 MiB segments, filled to ~70% and aged with random
// overwrites before measurement.
type gcScale struct {
	deviceBlocks int64
	segBlocks    int
	files        int
	filePages    int64
	cachePages   int
	window       sim.Time
	ageOps       int
	slow         float64
}

func gcScaleFor(s Scale) gcScale {
	dev := s.DeviceBlocks / 8
	if dev < 16384 {
		dev = 16384
	}
	g := gcScale{
		deviceBlocks: dev,
		segBlocks:    512,
		cachePages:   s.CachePages / 2,
		window:       s.Window,
		slow:         s.DeviceSlow,
	}
	g.filePages = 384 // ~1.5 MiB files
	g.files = int(float64(dev) * 0.7 / float64(g.filePages))
	g.ageOps = g.files * 2
	return g
}

// newLFSMachine builds the bare machine for the GC experiments. o is
// the cell's observability handle (nil when off, and for calibration
// probes — they are shared through the calibration cache, so charging
// them to a cell would make the registry depend on cache state).
func newLFSMachine(g gcScale, seed int64, o *obs.Obs) (*machine.LFSMachine, error) {
	return machine.NewLFS(machine.Config{
		Seed:         seed,
		DeviceBlocks: g.deviceBlocks,
		Model:        storage.DefaultHDD(g.deviceBlocks).Slowed(g.slow),
		CachePages:   g.cachePages,
		Obs:          o,
	}, lfs.Config{SegBlocks: g.segBlocks, ReservedSegs: 8})
}

// setupLFS populates and ages the filesystem inside the running
// simulation, then drops the cache so measurement starts cold.
func setupLFS(p *sim.Proc, m *machine.LFSMachine, g gcScale) ([]*lfs.Inode, error) {
	var files []*lfs.Inode
	for i := 0; i < g.files; i++ {
		f, err := m.FS.Create(fmt.Sprintf("f%05d", i))
		if err != nil {
			return nil, err
		}
		if err := m.FS.Write(p, f.Ino, 0, g.filePages); err != nil {
			return nil, err
		}
		files = append(files, f)
		if i%8 == 7 {
			m.FS.Sync(p)
		}
	}
	m.FS.Sync(p)
	// Age: random partial overwrites punch holes into segments so the
	// cleaner has work.
	rng := m.Eng.DeriveRand("lfs-age")
	for i := 0; i < g.ageOps; i++ {
		f := files[rng.Intn(len(files))]
		off := rng.Int63n(g.filePages - 8)
		if err := m.FS.Write(p, f.Ino, off, 8); err != nil {
			return nil, err
		}
		if i%16 == 15 {
			m.FS.Sync(p)
		}
	}
	m.FS.Sync(p)
	for _, f := range files {
		m.Cache.RemoveFile(m.FS.ID(), uint64(f.Ino))
	}
	return files, nil
}

// gcRun executes one GC measurement: build, set up, start the workload
// (rate 0 = unthrottled, negative = none) and the cleaner, run for the
// window, and hand the cleaner records to collect.
func gcRun(g gcScale, seed int64, rate float64, duet bool,
	collect func(gc *lfs.GC, gen *workload.Generator, m *machine.LFSMachine)) error {
	o := newCellObs()
	m, err := newLFSMachine(g, seed, o)
	if err != nil {
		return err
	}
	var gc *lfs.GC
	var gen *workload.Generator
	var setupErr error
	m.Eng.Go("gc-main", func(p *sim.Proc) {
		files, err := setupLFS(p, m, g)
		if err != nil {
			setupErr = err
			m.Eng.Stop()
			return
		}
		if rate >= 0 {
			gen, err = workload.NewLFS(m.Eng, m.FS, files, workload.Config{
				Personality: workload.Fileserver,
				OpsPerSec:   rate,
				Name:        "fileserver-lfs",
			})
			if err != nil {
				setupErr = err
				m.Eng.Stop()
				return
			}
			gen.Start(m.Eng)
		}
		gcCfg := lfs.GCConfig{
			Interval:       100 * sim.Millisecond,
			IdleAfter:      sim.Time(5*g.slow) * sim.Millisecond,
			UrgentFreeSegs: 4,
			WindowSegs:     4096,
		}
		if duet {
			var tr *gcduet.Tracker
			gc, tr, err = gcduet.StartGC(m.Eng, m.Duet, m.Adapter, m.FS, gcCfg)
			if err != nil {
				setupErr = err
				m.Eng.Stop()
				return
			}
			_ = tr
		} else {
			gc = m.FS.StartGC(gcCfg)
		}
		p.Sleep(g.window)
		m.Eng.Stop()
	})
	if err := m.Eng.Run(); err != nil {
		return err
	}
	if setupErr != nil {
		return setupErr
	}
	if collect != nil && gc != nil {
		collect(gc, gen, m)
	}
	mode := "base"
	if duet {
		mode = "duet"
	}
	foldCell(o, m, -1, cellTrace(o, fmt.Sprintf("gc %s r%.2f seed%d", mode, rate, seed)))
	return nil
}

// gcCleanStats returns the mean cleaning time and mean blocks read per
// cleaned segment for one run.
func gcCleanStats(g gcScale, seed int64, rate float64, duet bool) (sim.Time, float64, error) {
	var mean sim.Time
	var reads float64
	err := gcRun(g, seed, rate, duet, func(gc *lfs.GC, _ *workload.Generator, _ *machine.LFSMachine) {
		if len(gc.Records) == 0 {
			return
		}
		mean = gc.MeanCleanTime()
		var sum float64
		for _, r := range gc.Records {
			sum += float64(r.BlocksRead)
		}
		reads = sum / float64(len(gc.Records))
	})
	return mean, reads, err
}

func runTab6(s Scale, w io.Writer) error {
	g := gcScaleFor(s)
	fmt.Fprintln(w, "# Table 6: segment cleaning time with and without Duet (fileserver workload)")
	headers := []string{"Utilization", "Baseline clean (ms)", "Duet clean (ms)", "Baseline reads/seg", "Duet reads/seg"}
	var rows [][]string
	for _, util := range []float64{0.4, 0.5, 0.6, 0.7} {
		rate, err := calibrateLFSRate(g, util)
		if err != nil {
			return err
		}
		var bTimes, dTimes, bReads, dReads []float64
		for _, seed := range seeds(s) {
			bt, br, err := gcCleanStats(g, seed, rate, false)
			if err != nil {
				return err
			}
			dt, dr, err := gcCleanStats(g, seed, rate, true)
			if err != nil {
				return err
			}
			if bt > 0 {
				bTimes = append(bTimes, bt.Milliseconds())
				bReads = append(bReads, br)
			}
			if dt > 0 {
				dTimes = append(dTimes, dt.Milliseconds())
				dReads = append(dReads, dr)
			}
		}
		bm, bc := metrics.CI95(bTimes)
		dm, dc := metrics.CI95(dTimes)
		rows = append(rows, []string{
			metrics.Pct(util),
			fmt.Sprintf("%.1f±%.1f", bm, bc),
			fmt.Sprintf("%.1f±%.1f", dm, dc),
			fmt.Sprintf("%.0f", metrics.Mean(bReads)),
			fmt.Sprintf("%.0f", metrics.Mean(dReads)),
		})
	}
	metrics.RenderTable(w, headers, rows)
	return nil
}

// --- lfs utilization calibration ---------------------------------------------

type lfsCalKey struct {
	dev    int64
	decile int
}

// Guarded like calCache so gc experiments stay safe under RunGrid-style
// concurrency.
var (
	lfsCalMu    sync.Mutex
	lfsCalCache = map[lfsCalKey]float64{}
)

// calibrateLFSRate finds the fileserver ops/sec producing the target
// utilization on the aged lfs, measured without any cleaner running.
func calibrateLFSRate(g gcScale, target float64) (float64, error) {
	key := lfsCalKey{g.deviceBlocks, int(target*100 + 0.5)}
	lfsCalMu.Lock()
	r, ok := lfsCalCache[key]
	lfsCalMu.Unlock()
	if ok {
		return r, nil
	}
	measure := func(rate float64) (float64, error) {
		m, err := newLFSMachine(g, calSeed, nil)
		if err != nil {
			return 0, err
		}
		var util float64
		var setupErr error
		m.Eng.Go("probe", func(p *sim.Proc) {
			files, err := setupLFS(p, m, g)
			if err != nil {
				setupErr = err
				m.Eng.Stop()
				return
			}
			gen, err := workload.NewLFS(m.Eng, m.FS, files, workload.Config{
				Personality: workload.Fileserver,
				OpsPerSec:   rate,
				Name:        "fileserver-lfs",
			})
			if err != nil {
				setupErr = err
				m.Eng.Stop()
				return
			}
			gen.Start(m.Eng)
			p.Sleep(5 * sim.Second)
			before := m.Disk.Snapshot()
			p.Sleep(20 * sim.Second)
			util = storage.UtilBetween(before, m.Disk.Snapshot())
			m.Eng.Stop()
		})
		if err := m.Eng.Run(); err != nil {
			return 0, err
		}
		return util, setupErr
	}
	lo, hi := 0.0, 16.0
	for {
		u, err := measure(hi)
		if err != nil {
			return 0, err
		}
		if u >= target {
			break
		}
		lo = hi
		hi *= 2
		if hi > 65536 {
			lfsCalMu.Lock()
			lfsCalCache[key] = 0
			lfsCalMu.Unlock()
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
	rate := (lo + hi) / 2
	lfsCalMu.Lock()
	lfsCalCache[key] = rate
	lfsCalMu.Unlock()
	return rate, nil
}

func init() {
	register(Experiment{ID: "tab6", Title: "GC segment cleaning time (fileserver on lfs)", Run: runTab6})
}
