package experiments

import (
	"fmt"
	"io"

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
// probes — they are shared through the calibration memo, so charging
// them to a cell would make the registry depend on memo state).
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

// gcCleanStats runs one GC measurement — build, set up, start the
// workload (rate 0 = unthrottled, negative = none) and the cleaner, run
// for the window — and returns the mean cleaning time and mean blocks
// read per cleaned segment.
func gcCleanStats(c *RunConfig, g gcScale, seed int64, rate float64, duet bool) (sim.Time, float64, error) {
	o := c.newObs()
	m, err := newLFSMachine(g, seed, o)
	if err != nil {
		return 0, 0, err
	}
	var gc *lfs.GC
	var setupErr error
	m.Eng.Go("gc-main", func(p *sim.Proc) {
		files, err := setupLFS(p, m, g)
		if err != nil {
			setupErr = err
			m.Eng.Stop()
			return
		}
		if rate >= 0 {
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
		}
		gcCfg := lfs.GCConfig{
			Interval:       100 * sim.Millisecond,
			IdleAfter:      sim.Time(5*g.slow) * sim.Millisecond,
			UrgentFreeSegs: 4,
			WindowSegs:     4096,
		}
		if duet {
			gc, _, err = gcduet.StartGC(m.Eng, m.Duet, m.Adapter, m.FS, gcCfg)
			if err != nil {
				setupErr = err
				m.Eng.Stop()
				return
			}
		} else {
			gc = m.FS.StartGC(gcCfg)
		}
		p.Sleep(g.window)
		m.Eng.Stop()
	})
	if err := m.Eng.Run(); err != nil {
		return 0, 0, err
	}
	if setupErr != nil {
		return 0, 0, setupErr
	}
	var mean sim.Time
	var reads float64
	if gc != nil && len(gc.Records) > 0 {
		mean = gc.MeanCleanTime()
		var sum float64
		for _, r := range gc.Records {
			sum += float64(r.BlocksRead)
		}
		reads = sum / float64(len(gc.Records))
	}
	mode := "base"
	if duet {
		mode = "duet"
	}
	c.fold(observe(o, m, cellTrace(o, fmt.Sprintf("gc %s r%.2f seed%d", mode, rate, seed))))
	return mean, reads, nil
}

func runTab6(c *RunConfig, w io.Writer) error {
	g := gcScaleFor(c.Scale)
	fmt.Fprintln(w, "# Table 6: segment cleaning time with and without Duet (fileserver workload)")
	headers := []string{"Utilization", "Baseline clean (ms)", "Duet clean (ms)", "Baseline reads/seg", "Duet reads/seg"}
	var rows [][]string
	for _, util := range []float64{0.4, 0.5, 0.6, 0.7} {
		rate, err := calibrateLFSRate(g, util)
		if err != nil {
			return err
		}
		var bTimes, dTimes, bReads, dReads []float64
		for _, seed := range seeds(c.Scale) {
			bt, br, err := gcCleanStats(c, g, seed, rate, false)
			if err != nil {
				return err
			}
			dt, dr, err := gcCleanStats(c, g, seed, rate, true)
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

// calibrateLFSRate finds the fileserver ops/sec producing the target
// utilization on the aged lfs, measured without any cleaner running.
func calibrateLFSRate(g gcScale, target float64) (float64, error) {
	return calibrate(lfsCalKey{g.deviceBlocks, int(target*100 + 0.5)}, target,
		func(rate float64) (float64, error) { return measureLFSUtil(g, rate) })
}

// measureLFSUtil runs the fileserver workload alone on a freshly aged lfs
// at the given rate and returns the steady-state device utilization.
func measureLFSUtil(g gcScale, rate float64) (float64, error) {
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

func init() {
	register(Experiment{ID: "tab6", Title: "GC segment cleaning time (fileserver on lfs)", Exec: runTab6})
}
