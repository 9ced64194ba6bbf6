package core

// A flat open-addressed hash table finds a file's descriptors,
// mirroring internal/pagecache/flattab.go: the runtime map's generic
// struct-key hashing showed up at the top of full-run CPU profiles, and
// every page event performs at least one descriptor lookup. Linear
// probing with backward-shift deletion; a slot is occupied iff its value
// is non-nil.

const descTabMinSize = 256

// descHashMix is the MurmurHash3 64-bit finalizer (see pagecache).
func descHashMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (k fileKey) hash() uint64 {
	return descHashMix(uint64(k.fs)*0x9e3779b97f4a7c15 ^ k.ino)
}

// fdescTab maps fileKey -> *fileDescs.
type fdescTab struct {
	keys []fileKey
	vals []*fileDescs
	n    int
}

func (t *fdescTab) get(k fileKey) *fileDescs {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.vals) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		v := t.vals[i]
		if v == nil {
			return nil
		}
		if t.keys[i] == k {
			return v
		}
	}
}

func (t *fdescTab) put(k fileKey, v *fileDescs) {
	if t.n >= len(t.vals)-len(t.vals)/4 {
		t.grow()
	}
	mask := uint64(len(t.vals) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if t.vals[i] == nil {
			t.keys[i], t.vals[i] = k, v
			t.n++
			return
		}
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
}

func (t *fdescTab) del(k fileKey) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.vals) - 1)
	i := k.hash() & mask
	for {
		if t.vals[i] == nil {
			return
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.keys[i] = fileKey{}
		t.vals[i] = nil
		for {
			j = (j + 1) & mask
			if t.vals[j] == nil {
				t.n--
				return
			}
			h := t.keys[j].hash() & mask
			if (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
}

func (t *fdescTab) grow() {
	size := descTabMinSize
	if len(t.vals) > 0 {
		size = len(t.vals) * 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]fileKey, size)
	t.vals = make([]*fileDescs, size)
	t.n = 0
	for i, v := range oldVals {
		if v != nil {
			t.put(oldKeys[i], v)
		}
	}
}
