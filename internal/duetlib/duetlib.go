// Package duetlib is the task-side library of §4.2: a priority queue for
// storing fetched Duet events and helpers implementing the processing
// skeleton of Algorithm 1 (fetch events, update the queue, process the
// highest-priority item, mark it done).
//
// Both in-kernel tasks (scrubber, backup, defragmenter, GC) and the
// user-level rsync use this library, as in the paper.
package duetlib

import (
	"slices"

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
// the highest fraction of pages in memory", §5.3). It keeps one
// fileBits per tracked file, so its memory follows the files a task
// touches (§4.2 keeps a task's bitmaps the same way).
type FileTracker struct {
	files   map[uint64]*fileBits
	changed []uint64 // Apply's result, reused across calls
}

// fileBits is one file's tracked pages: a bitset of resident page
// indices, one of dirty ones, and how many bits each has set. A file is
// tracked while either count is non-zero.
type fileBits struct {
	res, dirty   bitset
	nres, ndirty int
}

// bitset is a dense set of page indices, grown to the highest index set.
type bitset []uint64

// set adds i and reports whether it was absent.
func (b *bitset) set(i uint64) bool {
	w := int(i / 64)
	if w >= len(*b) {
		*b = append(*b, make(bitset, w+1-len(*b))...)
	}
	m := uint64(1) << (i % 64)
	if (*b)[w]&m != 0 {
		return false
	}
	(*b)[w] |= m
	return true
}

// unset removes i and reports whether it was present.
func (b bitset) unset(i uint64) bool {
	w := i / 64
	if w >= uint64(len(b)) {
		return false
	}
	m := uint64(1) << (i % 64)
	if b[w]&m == 0 {
		return false
	}
	b[w] &^= m
	return true
}

// NewFileTracker returns an empty tracker.
func NewFileTracker() *FileTracker {
	return &FileTracker{files: make(map[uint64]*fileBits)}
}

// Apply folds fetched items (from a file-task session subscribed to state
// notifications) into the tracker and returns the inodes the items
// named, ascending and without repeats. The result is valid until the
// next Apply.
func (t *FileTracker) Apply(items []core.Item) []uint64 {
	t.changed = t.changed[:0]
	var f *fileBits
	for k, it := range items {
		ino, idx := it.ID, it.PageIdx
		if k == 0 || ino != items[k-1].ID {
			t.changed = append(t.changed, ino)
			f = t.files[ino]
		}
		if f == nil {
			if !it.Flags.Has(core.StExists) && !it.Flags.Has(core.StModified) {
				continue // nothing tracked to clear
			}
			f = &fileBits{}
			t.files[ino] = f
		}
		if it.Flags.Has(core.StExists) {
			if f.res.set(idx) {
				f.nres++
			}
		} else if f.res.unset(idx) {
			f.nres--
		}
		if it.Flags.Has(core.StModified) {
			if f.dirty.set(idx) {
				f.ndirty++
			}
		} else if f.dirty.unset(idx) {
			f.ndirty--
		}
		if f.nres == 0 && f.ndirty == 0 {
			delete(t.files, ino)
			f = nil
		}
	}
	slices.Sort(t.changed)
	t.changed = slices.Compact(t.changed)
	return t.changed
}

// CachedPages returns how many pages of the file the tracker believes are
// resident.
func (t *FileTracker) CachedPages(ino uint64) int {
	if f := t.files[ino]; f != nil {
		return f.nres
	}
	return 0
}

// DirtyPages returns how many of them are dirty.
func (t *FileTracker) DirtyPages(ino uint64) int {
	if f := t.files[ino]; f != nil {
		return f.ndirty
	}
	return 0
}

// Forget drops all state for a file (after it has been processed).
func (t *FileTracker) Forget(ino uint64) { delete(t.files, ino) }

// Files returns the inodes with resident pages, in ascending order.
func (t *FileTracker) Files() []uint64 {
	out := make([]uint64, 0, len(t.files))
	for ino, f := range t.files {
		if f.nres > 0 {
			out = append(out, ino)
		}
	}
	slices.Sort(out)
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
