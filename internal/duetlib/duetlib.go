// Package duetlib is the task-side library of §4.2: a priority queue for
// storing fetched Duet events and helpers implementing the processing
// skeleton of Algorithm 1 (fetch events, update the queue, process the
// highest-priority item, mark it done).
//
// Both in-kernel tasks (scrubber, backup, defragmenter, GC) and the
// user-level rsync use this library, as in the paper.
package duetlib

import (
	"duet/internal/core"
	"duet/internal/rbtree"
)

// PrioQueue is a max-priority queue of item IDs with updatable
// priorities, backed by a red-black tree as in the paper's
// implementation. Ties dequeue in ascending ID order for determinism.
type PrioQueue struct {
	tree *rbtree.Tree[pqKey, struct{}]
	byID map[uint64]float64
}

type pqKey struct {
	prio float64
	id   uint64
}

func pqLess(a, b pqKey) bool {
	if a.prio != b.prio {
		return a.prio > b.prio // higher priority sorts first
	}
	return a.id < b.id
}

// NewPrioQueue returns an empty queue.
func NewPrioQueue() *PrioQueue {
	return &PrioQueue{
		tree: rbtree.New[pqKey, struct{}](pqLess),
		byID: make(map[uint64]float64),
	}
}

// Update sets (or changes) the priority of an item, inserting it if
// absent.
func (q *PrioQueue) Update(id uint64, prio float64) {
	if old, ok := q.byID[id]; ok {
		if old == prio {
			return
		}
		q.tree.Delete(pqKey{old, id})
	}
	q.byID[id] = prio
	q.tree.Set(pqKey{prio, id}, struct{}{})
}

// Remove drops an item; it reports whether the item was present.
func (q *PrioQueue) Remove(id uint64) bool {
	old, ok := q.byID[id]
	if !ok {
		return false
	}
	delete(q.byID, id)
	q.tree.Delete(pqKey{old, id})
	return true
}

// DequeueMax removes and returns the highest-priority item.
func (q *PrioQueue) DequeueMax() (id uint64, prio float64, ok bool) {
	k, _, found := q.tree.DeleteMin() // tree orders max-priority first
	if !found {
		return 0, 0, false
	}
	delete(q.byID, k.id)
	return k.id, k.prio, true
}

// PeekMax returns the highest-priority item without removing it.
func (q *PrioQueue) PeekMax() (id uint64, prio float64, ok bool) {
	k, _, found := q.tree.Min()
	if !found {
		return 0, 0, false
	}
	return k.id, k.prio, true
}

// Priority returns an item's current priority.
func (q *PrioQueue) Priority(id uint64) (float64, bool) {
	p, ok := q.byID[id]
	return p, ok
}

// Len returns the number of queued items.
func (q *PrioQueue) Len() int { return q.tree.Len() }

// FileTracker accumulates per-file cache residency from fetched items, the
// state tasks like defragmentation and rsync prioritize on ("files with
// the highest fraction of pages in memory", §5.3).
type FileTracker struct {
	pages map[uint64]map[uint64]bool // inode -> set of resident page idxs
	dirty map[uint64]map[uint64]bool // inode -> set of dirty page idxs
}

// NewFileTracker returns an empty tracker.
func NewFileTracker() *FileTracker {
	return &FileTracker{
		pages: make(map[uint64]map[uint64]bool),
		dirty: make(map[uint64]map[uint64]bool),
	}
}

// Apply folds fetched items (from a file-task session subscribed to state
// notifications) into the tracker and returns the inodes whose residency
// changed.
func (t *FileTracker) Apply(items []core.Item) []uint64 {
	changed := make(map[uint64]bool)
	for _, it := range items {
		ino, idx := it.ID, it.PageIdx
		if it.Flags.Has(core.StExists) {
			set(t.pages, ino, idx)
		} else {
			unset(t.pages, ino, idx)
		}
		if it.Flags.Has(core.StModified) {
			set(t.dirty, ino, idx)
		} else {
			unset(t.dirty, ino, idx)
		}
		changed[ino] = true
	}
	out := make([]uint64, 0, len(changed))
	for ino := range changed {
		out = append(out, ino)
	}
	sortUint64(out)
	return out
}

func set(m map[uint64]map[uint64]bool, ino, idx uint64) {
	s := m[ino]
	if s == nil {
		s = make(map[uint64]bool)
		m[ino] = s
	}
	s[idx] = true
}

func unset(m map[uint64]map[uint64]bool, ino, idx uint64) {
	if s := m[ino]; s != nil {
		delete(s, idx)
		if len(s) == 0 {
			delete(m, ino)
		}
	}
}

// CachedPages returns how many pages of the file the tracker believes are
// resident.
func (t *FileTracker) CachedPages(ino uint64) int { return len(t.pages[ino]) }

// DirtyPages returns how many of them are dirty.
func (t *FileTracker) DirtyPages(ino uint64) int { return len(t.dirty[ino]) }

// Forget drops all state for a file (after it has been processed).
func (t *FileTracker) Forget(ino uint64) {
	delete(t.pages, ino)
	delete(t.dirty, ino)
}

// Files returns the tracked inodes in ascending order.
func (t *FileTracker) Files() []uint64 {
	out := make([]uint64, 0, len(t.pages))
	for ino := range t.pages {
		out = append(out, ino)
	}
	sortUint64(out)
	return out
}

// SetDone marks a file processed in the session and drops the tracker's
// state for it: events for a done file are suppressed, so no later Apply
// would.
func SetDone(s *core.Session, t *FileTracker, ino uint64) {
	s.SetDone(ino)
	t.Forget(ino)
}

// PrioUpdate is the prioqueue_update() of Algorithm 1: it drains pending
// events from the session, folds them into the tracker, and refreshes the
// priority queue using prio (which receives the inode and the tracker).
// It returns the number of items fetched.
func PrioUpdate(s *core.Session, t *FileTracker, q *PrioQueue, prio func(ino uint64, t *FileTracker) float64) int {
	total := 0
	buf := make([]core.Item, 256)
	for {
		n := s.FetchInto(buf)
		if n == 0 {
			return total
		}
		total += n
		for _, ino := range t.Apply(buf[:n]) {
			p := 0.0
			if !s.CheckDone(ino) {
				p = prio(ino, t)
			}
			switch {
			case s.CheckDone(ino):
				// Done before prio or by it (tasks mark non-targets
				// done there): its events are suppressed from now on,
				// so no later Apply would drop its pages.
				t.Forget(ino)
				q.Remove(ino)
			case p <= 0:
				q.Remove(ino)
			default:
				q.Update(ino, p)
			}
		}
	}
}

// HandleQueued is the handle_queued() of Algorithm 1: it repeatedly
// refreshes the queue and hands the highest-priority inode to handle
// until the queue runs dry. handle returns false to stop early (e.g. the
// task's time slice expired).
func HandleQueued(s *core.Session, t *FileTracker, q *PrioQueue,
	prio func(ino uint64, t *FileTracker) float64,
	handle func(ino uint64) bool) {
	for {
		PrioUpdate(s, t, q, prio)
		ino, _, ok := q.DequeueMax()
		if !ok {
			return
		}
		t.Forget(ino)
		if s.CheckDone(ino) {
			continue
		}
		if !handle(ino) {
			return
		}
	}
}

func sortUint64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
