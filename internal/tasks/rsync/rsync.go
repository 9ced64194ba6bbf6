// Package rsync models the rsync application of §5.5 synchronising a
// source directory to an (initially empty) destination directory on
// another device.
//
// As in real rsync, three processes cooperate over pipes: the *sender*
// traverses the source hierarchy depth-first and ships file metadata; the
// *receiver* passes it to the *generator*, which checks the destination
// and requests the data it is missing (everything, for an empty
// destination — no checksumming needed, as the paper's experiment notes);
// the sender then reads the file in 32 KiB chunks and streams it to the
// receiver, which writes the destination file.
//
// The opportunistic sender registers a file task for Exists notifications
// and transfers files with the most pages in memory out of order,
// ensuring each file's metadata is sent exactly once (§5.5). Rsync runs
// at normal I/O priority, unlike the in-kernel tasks.
package rsync

import (
	"errors"
	"fmt"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/duetlib"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
)

// Owner labels rsync's device I/O on the source; the destination side
// writes as OwnerDst.
const (
	Owner    = "rsync"
	OwnerDst = "rsync-dst"
)

// class is rsync's I/O priority: normal, because rsync is a regular
// application, not a maintenance task.
const class = storage.ClassNormal

// Config tunes the transfer.
type Config struct {
	// ChunkPages is the data chunk size (8 pages = rsync's 32 KiB).
	ChunkPages int
	// PipeDepth is the buffering between the three processes, in
	// messages.
	PipeDepth int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{ChunkPages: 8, PipeDepth: 16}
}

// Rsync synchronises SrcRoot (on Src) into DstDir (on Dst).
type Rsync struct {
	Src     *cowfs.FS
	SrcRoot cowfs.Ino
	Dst     *cowfs.FS
	DstDir  string
	Cfg     Config

	Duet    *core.Duet
	Adapter *core.CowAdapter

	Report tasks.Report
	// FilesSent counts transferred files.
	FilesSent int64

	session *core.Session
	tracker *duetlib.FileTracker
	pq      *duetlib.PrioQueue
	byIno   map[uint64]*cowfs.Inode
}

// New creates a baseline rsync.
func New(src *cowfs.FS, srcRoot cowfs.Ino, dst *cowfs.FS, dstDir string, cfg Config) *Rsync {
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = 8
	}
	if cfg.PipeDepth <= 0 {
		cfg.PipeDepth = 16
	}
	return &Rsync{Src: src, SrcRoot: srcRoot, Dst: dst, DstDir: dstDir, Cfg: cfg,
		Report: tasks.Report{Name: "rsync"}}
}

// NewOpportunistic creates a Duet-enabled rsync.
func NewOpportunistic(src *cowfs.FS, srcRoot cowfs.Ino, dst *cowfs.FS, dstDir string, cfg Config, d *core.Duet, ad *core.CowAdapter) *Rsync {
	r := New(src, srcRoot, dst, dstDir, cfg)
	r.Duet, r.Adapter = d, ad
	r.Report.Opportunistic = true
	return r
}

// Pipe messages.
type fileMeta struct {
	ino    uint64
	rel    string
	sizePg int64
}

type dataMsg struct {
	meta  fileMeta
	off   int64
	pages int64
	last  bool
}

// Run performs the synchronisation, spawning the generator and receiver
// processes; the calling process acts as the sender. It returns when the
// destination is fully written.
func (r *Rsync) Run(p *sim.Proc) error {
	r.Report.Start = p.Now()
	defer r.Report.Settle(p)
	e := p.Engine()

	files := r.dfsFiles()
	r.byIno = make(map[uint64]*cowfs.Inode, len(files))
	for _, f := range files {
		r.byIno[uint64(f.Ino)] = f
		r.Report.WorkTotal += f.SizePg
	}

	if r.Duet != nil {
		sess, err := r.Duet.RegisterFile(r.Adapter, uint64(r.SrcRoot), core.StExists)
		if err != nil {
			return fmt.Errorf("rsync: %w", err)
		}
		r.session = sess
		defer func() { _ = sess.Close() }()
		r.tracker = duetlib.NewFileTracker()
		r.pq = duetlib.NewPrioQueue()
	}

	metaCh := sim.NewChan[fileMeta](e, r.Cfg.PipeDepth, "rsync-meta")
	reqCh := sim.NewChan[fileMeta](e, r.Cfg.PipeDepth, "rsync-req")
	dataCh := sim.NewChan[dataMsg](e, r.Cfg.PipeDepth, "rsync-data")
	recvDone := sim.NewFuture[error](e)

	// Generator: receives metadata (via the receiver), checks the
	// destination, requests missing data.
	e.Go("rsync-generator", func(gp *sim.Proc) {
		for {
			m, ok := metaCh.Recv(gp)
			if !ok {
				reqCh.Close()
				return
			}
			// Destination is empty: everything is requested in full.
			reqCh.Send(gp, m)
		}
	})

	// Receiver: writes requested data into the destination tree. On
	// error it keeps draining the pipe so the sender never wedges.
	e.Go("rsync-receiver", func(rp *sim.Proc) {
		created := map[uint64]cowfs.Ino{}
		fail := func(err error) {
			recvDone.Complete(err, nil)
			for {
				if _, ok := dataCh.Recv(rp); !ok {
					return
				}
			}
		}
		for {
			d, ok := dataCh.Recv(rp)
			if !ok {
				recvDone.Complete(nil, nil)
				return
			}
			dstIno, exists := created[d.meta.ino]
			if !exists {
				path := r.DstDir + "/" + d.meta.rel
				if _, err := r.Dst.MkdirAll(parentOf(path)); err != nil {
					fail(err)
					return
				}
				f, err := r.Dst.Create(path)
				if err != nil {
					fail(err)
					return
				}
				dstIno = f.Ino
				created[d.meta.ino] = dstIno
			}
			if d.pages > 0 {
				if err := r.Dst.Write(rp, dstIno, d.off, d.pages); err != nil {
					fail(err)
					return
				}
			}
		}
	})

	// Sender: interleave the normal DFS order with opportunistic
	// transfers of well-cached files.
	sent := make(map[uint64]bool, len(files))
	sendFile := func(f *cowfs.Inode, rel string) error {
		if sent[uint64(f.Ino)] {
			return nil
		}
		sent[uint64(f.Ino)] = true
		m := fileMeta{ino: uint64(f.Ino), rel: rel, sizePg: f.SizePg}
		metaCh.Send(p, m)
		if _, ok := reqCh.Recv(p); !ok {
			return fmt.Errorf("rsync: request pipe closed early")
		}
		var missed int64
		if f.SizePg == 0 {
			dataCh.Send(p, dataMsg{meta: m, last: true})
		}
		for off := int64(0); off < f.SizePg; off += int64(r.Cfg.ChunkPages) {
			n := int64(r.Cfg.ChunkPages)
			if off+n > f.SizePg {
				n = f.SizePg - off
			}
			miss, err := r.Src.ReadCount(p, f.Ino, off, n, class, Owner)
			if errors.Is(err, cowfs.ErrNotFound) {
				// Deleted mid-transfer (e.g. a rotated log): rsync skips it
				// with a "file has vanished" warning in real life.
				dataCh.Send(p, dataMsg{meta: m, off: off, pages: 0, last: true})
				r.Report.WorkTotal -= f.SizePg - off
				r.Report.WorkDone += off
				r.FilesSent++
				if r.session != nil {
					duetlib.SetDone(r.session, r.tracker, uint64(f.Ino))
				}
				return nil
			}
			if err != nil {
				return fmt.Errorf("rsync: read %s: %w", rel, err)
			}
			missed += miss
			dataCh.Send(p, dataMsg{meta: m, off: off, pages: n, last: off+n >= f.SizePg})
		}
		r.Report.WorkDone += f.SizePg
		r.Report.ReadBlocks += missed
		r.Report.Saved += f.SizePg - missed
		r.FilesSent++
		if r.session != nil {
			duetlib.SetDone(r.session, r.tracker, uint64(f.Ino))
		}
		return nil
	}

	prio := func(ino uint64, t *duetlib.FileTracker) float64 {
		if _, ok := r.byIno[ino]; !ok {
			duetlib.SetDone(r.session, r.tracker, ino)
			return 0
		}
		if sent[ino] {
			return 0
		}
		// Most pages in memory first (§5.5).
		return float64(t.CachedPages(ino))
	}

	var senderErr error
	for _, f := range files {
		if e.Stopping() {
			break
		}
		// Opportunistic pass.
		if r.session != nil {
			duetlib.HandleQueued(r.session, r.tracker, r.pq, prio, func(ino uint64) bool {
				cf := r.byIno[ino]
				if cf == nil || sent[ino] {
					return true
				}
				// duet_get_path doubles as the truth check for the hints
				// (§3.2): failure means the file is no longer cached, so
				// back out of the opportunistic transfer — the normal DFS
				// pass will reach it anyway.
				rel, err := r.session.GetPath(ino)
				if err != nil {
					return true
				}
				if err := sendFile(cf, rel); err != nil {
					senderErr = err
					return false
				}
				return !e.Stopping()
			})
			if senderErr != nil {
				break
			}
		}
		if sent[uint64(f.Ino)] {
			continue
		}
		rel, ok := r.Src.Within(f.Ino, r.SrcRoot)
		if !ok {
			continue
		}
		if err := sendFile(f, rel); err != nil {
			senderErr = err
			break
		}
	}
	metaCh.Close()
	dataCh.Close()
	if recvErr, _ := recvDone.Wait(p); recvErr != nil {
		return fmt.Errorf("rsync receiver: %w", recvErr)
	}
	if senderErr != nil {
		return senderErr
	}
	r.Report.Completed = int(r.FilesSent) == len(files)
	r.Report.End = p.Now()
	return nil
}

// dfsFiles lists the source files in depth-first traversal order
// (Table 3's processing order for rsync).
func (r *Rsync) dfsFiles() []*cowfs.Inode {
	root, ok := r.Src.Inode(r.SrcRoot)
	if !ok || !root.Dir {
		return nil
	}
	var out []*cowfs.Inode
	var walk func(d *cowfs.Inode)
	walk = func(d *cowfs.Inode) {
		for _, c := range r.Src.ChildrenSorted(d) {
			if c.Dir {
				walk(c)
			} else {
				out = append(out, c)
			}
		}
	}
	walk(root)
	return out
}

func parentOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "/"
}
