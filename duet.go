// Package duet is a faithful, simulation-backed reproduction of Duet, the
// opportunistic storage maintenance framework of
//
//	George Amvrosiadis, Angela Demke Brown, Ashvin Goel.
//	"Opportunistic Storage Maintenance". SOSP 2015.
//
// Duet hooks into the page cache and notifies maintenance tasks —
// scrubbing, backup, defragmentation, garbage collection, rsync — about
// page-level events (a page added, removed, dirtied, or flushed), so
// tasks can process data that is already in memory out of order and skip
// the corresponding device I/O.
//
// The original system lives inside the Linux kernel. This module rebuilds
// the entire stack as a deterministic discrete-event simulation: virtual
// time, HDD/SSD device models behind a CFQ-like scheduler with an idle
// class, an LRU page cache with writeback, a Btrfs-like copy-on-write
// filesystem with checksums and snapshots, an F2fs-like log-structured
// filesystem with segment cleaning, Filebench-like workload generators —
// and Duet itself, hooked into the simulated cache exactly as the paper
// describes (§4).
//
// # Quick start
//
//	m, err := duet.NewMachine(duet.MachineConfig{
//		Seed:         1,
//		DeviceBlocks: 1 << 18, // 1 GiB device, 4 KiB blocks
//		CachePages:   4096,    // 16 MiB page cache
//	})
//	// populate a tree, register a Duet session, run a task...
//
// See examples/quickstart for a complete program, DESIGN.md for the
// system inventory, and internal/experiments for the reproduction of
// every table and figure in the paper's evaluation.
package duet

import (
	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/lfs"
	"duet/internal/machine"
	"duet/internal/metrics"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
	"duet/internal/tasks/avscan"
	"duet/internal/tasks/backup"
	"duet/internal/tasks/defrag"
	"duet/internal/tasks/gcduet"
	"duet/internal/tasks/rsync"
	"duet/internal/tasks/scrub"
	"duet/internal/trace"
	"duet/internal/workload"
)

// --- simulation kernel -------------------------------------------------------

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Engine is the discrete-event scheduler every machine runs on.
type Engine = sim.Engine

// Proc is a simulated process.
type Proc = sim.Proc

// --- machine assembly --------------------------------------------------------

// MachineConfig describes a simulated machine.
type MachineConfig = machine.Config

// Machine is a complete simulated host: device, scheduler, page cache,
// COW filesystem, and a Duet instance hooked into the cache.
type Machine = machine.Machine

// LFSMachine is a machine whose filesystem is log-structured.
type LFSMachine = machine.LFSMachine

// PopulateSpec describes a synthetic file tree.
type PopulateSpec = machine.PopulateSpec

// Device kinds.
const (
	HDD = machine.HDD
	SSD = machine.SSD
)

// NewMachine builds a machine with a COW filesystem.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// NewLFSMachine builds a machine with a log-structured filesystem.
func NewLFSMachine(cfg MachineConfig, fscfg lfs.Config) (*LFSMachine, error) {
	return machine.NewLFS(cfg, fscfg)
}

// DefaultPopulateSpec sizes a Filebench-like tree of roughly totalPages.
func DefaultPopulateSpec(dir string, totalPages int64) PopulateSpec {
	return machine.DefaultPopulateSpec(dir, totalPages)
}

// --- the Duet framework (the paper's API, Table 1) ---------------------------

// Framework is the Duet instance: it receives page-cache events and
// distributes them to sessions.
type Framework = core.Duet

// Session is one task's registration (duet_register .. duet_deregister).
type Session = core.Session

// Item is one fetched notification: (item_id, offset, flag) plus the page
// identity that produced it.
type Item = core.Item

// Mask selects notification types and is the per-item flag word.
type Mask = core.Mask

// Notification bits (Table 2 of the paper).
const (
	EvtAdded   = core.EvtAdded
	EvtRemoved = core.EvtRemoved
	EvtDirtied = core.EvtDirtied
	EvtFlushed = core.EvtFlushed
	StExists   = core.StExists
	StModified = core.StModified
	EventBits  = core.EventBits
	StateBits  = core.StateBits
)

// --- filesystems --------------------------------------------------------------

// CowFS is the Btrfs-like copy-on-write filesystem.
type CowFS = cowfs.FS

// CowInode is a cowfs file or directory.
type CowInode = cowfs.Inode

// Snapshot is a cowfs snapshot (shares blocks with the live tree).
type Snapshot = cowfs.Snapshot

// LFS is the F2fs-like log-structured filesystem.
type LFS = lfs.FS

// --- storage -------------------------------------------------------------------

// Disk is a simulated block device.
type Disk = storage.Disk

// I/O priority classes.
const (
	ClassNormal = storage.ClassNormal
	ClassIdle   = storage.ClassIdle
)

// --- maintenance tasks (§5) ----------------------------------------------------

// TaskReport summarises a maintenance run (work done, I/O saved, ...).
type TaskReport = tasks.Report

// Scrubber is the checksum scrubber (§5.1).
type Scrubber = scrub.Scrubber

// NewScrubber returns a baseline scrubber.
func NewScrubber(fs *CowFS, cfg scrub.Config) *Scrubber { return scrub.New(fs, cfg) }

// NewOpportunisticScrubber returns a Duet-enabled scrubber.
func NewOpportunisticScrubber(m *Machine, cfg scrub.Config) *Scrubber {
	return scrub.NewOpportunistic(m.FS, cfg, m.Duet, m.Adapter)
}

// Backup is the snapshot-based backup tool (§5.2).
type Backup = backup.Backup

// NewBackup returns a baseline backup of the snapshot.
func NewBackup(fs *CowFS, snap *Snapshot, cfg backup.Config) *Backup {
	return backup.New(fs, snap, cfg)
}

// NewOpportunisticBackup returns a Duet-enabled backup.
func NewOpportunisticBackup(m *Machine, snap *Snapshot, cfg backup.Config) *Backup {
	return backup.NewOpportunistic(m.FS, snap, cfg, m.Duet, m.Adapter)
}

// Defrag is the file defragmenter (§5.3).
type Defrag = defrag.Defrag

// NewDefrag returns a baseline defragmenter for the subtree at root.
func NewDefrag(fs *CowFS, root cowfs.Ino, cfg defrag.Config) *Defrag {
	return defrag.New(fs, root, cfg)
}

// NewOpportunisticDefrag returns a Duet-enabled defragmenter.
func NewOpportunisticDefrag(m *Machine, root cowfs.Ino, cfg defrag.Config) *Defrag {
	return defrag.NewOpportunistic(m.FS, root, cfg, m.Duet, m.Adapter)
}

// GC is the lfs segment cleaner (§5.4); GCTracker holds the Duet-derived
// per-segment cache counters for the opportunistic cost function.
type (
	GC        = lfs.GC
	GCTracker = gcduet.Tracker
)

// StartOpportunisticGC launches the Duet-enabled cleaner on an lfs
// machine.
func StartOpportunisticGC(m *LFSMachine, cfg lfs.GCConfig) (*GC, *GCTracker, error) {
	return gcduet.StartGC(m.Eng, m.Duet, m.Adapter, m.FS, cfg)
}

// AVScanner is the anti-virus style scanner (an extension motivated by
// the paper's introduction; see internal/tasks/avscan).
type AVScanner = avscan.Scanner

// NewAVScanner returns a baseline scanner over the subtree at root.
func NewAVScanner(fs *CowFS, root cowfs.Ino, cfg avscan.Config) *AVScanner {
	return avscan.New(fs, root, cfg)
}

// NewOpportunisticAVScanner returns a Duet-enabled scanner.
func NewOpportunisticAVScanner(m *Machine, root cowfs.Ino, cfg avscan.Config) *AVScanner {
	return avscan.NewOpportunistic(m.FS, root, cfg, m.Duet, m.Adapter)
}

// Rsync is the three-process rsync model (§5.5).
type Rsync = rsync.Rsync

// NewRsync returns a baseline rsync from srcRoot (on src) into dstDir.
func NewRsync(src *CowFS, srcRoot cowfs.Ino, dst *CowFS, dstDir string, cfg rsync.Config) *Rsync {
	return rsync.New(src, srcRoot, dst, dstDir, cfg)
}

// NewOpportunisticRsync returns a Duet-enabled rsync.
func NewOpportunisticRsync(m *Machine, srcRoot cowfs.Ino, dst *CowFS, dstDir string, cfg rsync.Config) *Rsync {
	return rsync.NewOpportunistic(m.FS, srcRoot, dst, dstDir, cfg, m.Duet, m.Adapter)
}

// --- workload generation (§6.1.1) ----------------------------------------------

// Workload drives Filebench-like foreground I/O.
type Workload = workload.Generator

// WorkloadConfig selects personality, coverage, distribution, and rate.
type WorkloadConfig = workload.Config

// Personalities.
const (
	Webserver  = workload.Webserver
	Webproxy   = workload.Webproxy
	Fileserver = workload.Fileserver
)

// NewWorkload builds a generator over a cowfs population.
func NewWorkload(m *Machine, files []*CowInode, cfg WorkloadConfig) (*Workload, error) {
	return workload.New(m.Eng, m.FS, files, cfg)
}

// AccessDistribution picks files by popularity (uniform or skewed).
type AccessDistribution = trace.Distribution

// DistributionByName resolves "uniform" or "ms-dev0/1/2".
func DistributionByName(name string) AccessDistribution { return trace.ByName(name) }

// --- metrics -------------------------------------------------------------------

// Figure is a renderable set of series (the experiment harness's output).
type Figure = metrics.Figure

// UtilBetween computes device utilization between two snapshots.
func UtilBetween(a, b storage.Snapshot) float64 { return storage.UtilBetween(a, b) }

// PageCache is the simulated page cache Duet hooks into, reachable for
// advanced use.
type PageCache = pagecache.Cache
