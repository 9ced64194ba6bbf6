package pagecache

// A flat open-addressed hash table finds a file's per-file state: the
// cache's fileIndex here, Duet's descriptors in package core (a slice
// indexed by page index finds the page from there). The runtime map
// hashes a multi-word struct key through the generic type-hash path,
// which dominated CPU profiles of full grid runs; this table uses a
// three-multiply inline hash and linear probing with backward-shift
// deletion instead. The key is fixed to FileKey so the hash stays
// inlined; only the value type varies. A slot is occupied iff its value
// is non-nil (callers only store non-nil values), so no separate control
// bytes are needed.

const tabMinSize = 256

// hashMix is the 64-bit avalanche finalizer from MurmurHash3: after the
// key fields are combined with distinct odd multipliers, it spreads the
// result so sequential inos don't cluster in the probe space.
func hashMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (k FileKey) hash() uint64 {
	return hashMix(uint64(k.FS)*0x9e3779b97f4a7c15 ^ k.Ino)
}

// FileTab maps FileKey -> *V. The zero value is an empty table.
type FileTab[V any] struct {
	keys []FileKey
	vals []*V
	n    int
}

// Len returns the number of keys present.
func (t *FileTab[V]) Len() int { return t.n }

// Get returns k's value, or nil when k is absent.
func (t *FileTab[V]) Get(k FileKey) *V {
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

// Put sets k's value; v must be non-nil.
func (t *FileTab[V]) Put(k FileKey, v *V) {
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

// Del removes k if present.
func (t *FileTab[V]) Del(k FileKey) {
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
		t.keys[i] = FileKey{}
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

func (t *FileTab[V]) grow() {
	size := tabMinSize
	if len(t.vals) > 0 {
		size = len(t.vals) * 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]FileKey, size)
	t.vals = make([]*V, size)
	t.n = 0
	for i, v := range oldVals {
		if v != nil {
			t.Put(oldKeys[i], v)
		}
	}
}

// AppendKeys appends every present key in slot order (callers sort).
func (t *FileTab[V]) AppendKeys(dst []FileKey) []FileKey {
	for i, v := range t.vals {
		if v != nil {
			dst = append(dst, t.keys[i])
		}
	}
	return dst
}
