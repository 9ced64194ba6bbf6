// Package machine assembles complete simulated storage machines: a
// virtual-time engine, a block device behind an I/O scheduler, the page
// cache, a filesystem, and a Duet instance hooked into the cache. It is
// the shared foundation of the experiment harness, the examples, and the
// public facade.
package machine

import (
	"fmt"
	"math/rand"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/iosched"
	"duet/internal/lfs"
	"duet/internal/obs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// DeviceKind selects the device model.
type DeviceKind string

// Supported device kinds.
const (
	HDD DeviceKind = "hdd"
	SSD DeviceKind = "ssd"
)

// Config describes a machine.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// DeviceBlocks is the capacity of the (first) device in 4 KiB blocks.
	DeviceBlocks int64
	// Device selects the model (default HDD).
	Device DeviceKind
	// Model, when non-nil, overrides Device with a custom device model
	// (e.g. a Slowed HDD for reduced-scale experiments).
	Model storage.Model
	// Scheduler is the I/O scheduler name: cfq (default), deadline, noop.
	Scheduler string
	// CachePages is the page cache budget.
	CachePages int
	// CacheConfig optionally overrides writeback tunables; zero values
	// take defaults.
	DirtyExpire       sim.Time
	WritebackInterval sim.Time
	// IdleGrace overrides the CFQ idle-class grace period (how long the
	// device must stay free of foreground activity before maintenance
	// I/O is dispatched). Zero keeps the scheduler default.
	IdleGrace sim.Time
	// Retry overrides the disk's retry/backoff/deadline policy, applied
	// when fault injection is attached. The zero value preserves the
	// historical behavior: storage.DefaultRetryPolicy() is armed the
	// moment an injector attaches, so fault experiments that never set
	// this field see an unchanged decision stream.
	Retry storage.RetryPolicy
	// Obs, when non-nil, enables the observability subsystem: the
	// engine, disks, cache, Duet, and filesystems all record into it.
	// Nil (the default) keeps every hot path on its probe-free branch.
	Obs *obs.Obs
}

// newScheduler builds the configured I/O scheduler.
func (c *Config) newScheduler() storage.Scheduler {
	sched := iosched.ByName(c.Scheduler)
	if cfq, ok := sched.(*iosched.CFQ); ok && c.IdleGrace > 0 {
		cfq.IdleGrace = c.IdleGrace
	}
	return sched
}

// cacheConfig derives the page-cache configuration, applying the
// machine-level writeback overrides.
func (c *Config) cacheConfig() pagecache.Config {
	cc := pagecache.DefaultConfig(c.CachePages)
	if c.DirtyExpire > 0 {
		cc.DirtyExpire = c.DirtyExpire
	}
	if c.WritebackInterval > 0 {
		cc.WritebackInterval = c.WritebackInterval
	}
	return cc
}

// newDisk builds a disk with the configured scheduler and retry policy.
func (c *Config) newDisk(e sim.Host, name string, model storage.Model) *storage.Disk {
	d := storage.NewDisk(e, name, model, c.newScheduler())
	if c.Retry != (storage.RetryPolicy{}) {
		d.SetRetryPolicy(c.Retry)
	}
	return d
}

// model resolves the device model: the Model override, else the
// built-in model of Device sized to DeviceBlocks.
func (c *Config) model() (storage.Model, error) {
	if c.Model != nil {
		return c.Model, nil
	}
	return newModel(c.Device, c.DeviceBlocks)
}

// Validate fills defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.DeviceBlocks <= 0 {
		return fmt.Errorf("machine: DeviceBlocks must be positive")
	}
	if c.CachePages <= 0 {
		return fmt.Errorf("machine: CachePages must be positive")
	}
	if c.Device == "" {
		c.Device = HDD
	}
	if c.Scheduler == "" {
		c.Scheduler = "cfq"
	}
	if iosched.ByName(c.Scheduler) == nil {
		return fmt.Errorf("machine: unknown scheduler %q", c.Scheduler)
	}
	return nil
}

func newModel(kind DeviceKind, blocks int64) (storage.Model, error) {
	switch kind {
	case HDD:
		return storage.DefaultHDD(blocks), nil
	case SSD:
		return storage.DefaultSSD(blocks), nil
	}
	return nil, fmt.Errorf("machine: unknown device kind %q", kind)
}

// Machine is an assembled simulation: an engine of its own plus one
// cowfs Stack on its default domain.
type Machine struct {
	Eng *sim.Engine
	*Stack

	nextFSID pagecache.FSID

	// Components added after New, tracked so CollectMetrics covers them.
	extraDisks []*storage.Disk
	extraCow   []*cowfs.FS
}

// New builds a machine with a COW filesystem on one device. Its stack
// records into cfg.Obs directly.
func New(cfg Config) (*Machine, error) {
	e := sim.New(cfg.Seed)
	s, err := newStack(e, cfg, "sda", cfg.Obs)
	if err != nil {
		return nil, err
	}
	return &Machine{Eng: e, Stack: s, nextFSID: 2}, nil
}

// AddCowFS attaches a second COW filesystem on its own device (e.g. the
// rsync destination), sharing the page cache and Duet instance.
func (m *Machine) AddCowFS(name string, blocks int64, kind DeviceKind) (*cowfs.FS, *core.CowAdapter, error) {
	model, err := newModel(kind, blocks)
	if err != nil {
		return nil, nil, err
	}
	disk := m.cfg.newDisk(m.Eng, name, model)
	fs := cowfs.New(m.Eng, m.nextFSID, disk, m.Cache)
	m.nextFSID++
	ad := core.AttachCow(m.Duet, fs)
	if o := m.Obs; live(o) {
		disk.EnableObs(o)
		fs.EnableObs(o)
	}
	m.extraDisks = append(m.extraDisks, disk)
	m.extraCow = append(m.extraCow, fs)
	return fs, ad, nil
}

// LFSMachine is an assembled simulation with a log-structured filesystem.
type LFSMachine struct {
	Eng     *sim.Engine
	Disk    *storage.Disk
	Cache   *pagecache.Cache
	FS      *lfs.FS
	Duet    *core.Duet
	Adapter *core.LFSAdapter
}

// NewLFS builds a machine with an lfs filesystem on one device.
func NewLFS(cfg Config, fscfg lfs.Config) (*LFSMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := cfg.model()
	if err != nil {
		return nil, err
	}
	e := sim.New(cfg.Seed)
	disk := cfg.newDisk(e, "sda", model)
	cache := pagecache.New(e, cfg.cacheConfig())
	fs := lfs.New(e, 1, disk, cache, fscfg)
	d := core.New(cache)
	ad := core.AttachLFS(d, fs)
	if live(cfg.Obs) {
		enableObs(e, cfg.Obs, disk, cache, fs, d)
	}
	return &LFSMachine{Eng: e, Disk: disk, Cache: cache, FS: fs, Duet: d, Adapter: ad}, nil
}

// PopulateSpec describes a synthetic file tree, Filebench-style.
type PopulateSpec struct {
	// Dir is the root directory to create (e.g. "/data").
	Dir string
	// Files is the number of regular files.
	Files int
	// MeanFilePages is the mean file size; sizes follow a gamma-ish
	// distribution around it (Filebench uses a gamma distribution).
	MeanFilePages int
	// DirWidth is the fan-out of the directory tree (files per leaf).
	DirWidth int
	// FragmentedFrac is the fraction of files created with a fragmented
	// layout (the paper runs defragmentation on a 10% fragmented fs).
	FragmentedFrac float64
	// FragmentExtents is how many extents a fragmented file gets.
	FragmentExtents int
}

// DefaultPopulateSpec sizes a tree of roughly totalPages of data with
// Filebench-like defaults (mean file size 32 pages = 128 KiB).
func DefaultPopulateSpec(dir string, totalPages int64) PopulateSpec {
	const mean = 32
	n := int(totalPages / mean)
	if n < 1 {
		n = 1
	}
	return PopulateSpec{
		Dir:             dir,
		Files:           n,
		MeanFilePages:   mean,
		DirWidth:        20,
		FragmentedFrac:  0.1,
		FragmentExtents: 8,
	}
}

// Populate builds the file tree on the machine's COW filesystem without
// simulated I/O (the pre-experiment fill). It returns the created files
// in creation order.
func (m *Machine) Populate(spec PopulateSpec) ([]*cowfs.Inode, error) {
	fs, rng := m.FS, m.Eng.DeriveRand("populate:"+spec.Dir)
	if spec.DirWidth <= 0 {
		spec.DirWidth = 20
	}
	if spec.MeanFilePages <= 0 {
		spec.MeanFilePages = 32
	}
	if _, err := fs.MkdirAll(spec.Dir); err != nil {
		return nil, err
	}
	files := make([]*cowfs.Inode, 0, spec.Files)
	for i := 0; i < spec.Files; i++ {
		dir := fmt.Sprintf("%s/d%03d", spec.Dir, i/spec.DirWidth)
		if i%spec.DirWidth == 0 {
			if _, err := fs.MkdirAll(dir); err != nil {
				return nil, err
			}
		}
		size := gammaish(rng, spec.MeanFilePages)
		extents := 1
		if spec.FragmentedFrac > 0 && rng.Float64() < spec.FragmentedFrac {
			extents = spec.FragmentExtents
		}
		f, err := fs.PopulateFile(fmt.Sprintf("%s/f%06d", dir, i), int64(size), extents, rng)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// gammaish draws a file size with mean m and a long right tail, clamped
// to [1, 16m] — close to Filebench's gamma-distributed file sizes.
func gammaish(rng *rand.Rand, m int) int {
	// Sum of two exponentials ~ gamma(k=2), scaled to mean m.
	v := (rng.ExpFloat64() + rng.ExpFloat64()) * float64(m) / 2
	n := int(v)
	if n < 1 {
		n = 1
	}
	if n > 16*m {
		n = 16 * m
	}
	return n
}
