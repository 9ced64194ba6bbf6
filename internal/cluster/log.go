// Package cluster implements the replicated volume tier: N machine
// stacks (one per event domain) hosting sharded volumes with R-way
// replication, a coordinator that tracks membership and drives client
// traffic, machine-kill fault injection with in-engine recovery, and
// two re-replication strategies — a naive disk scan and a Duet-assisted
// repairer that ships cache-resident pages without touching the disk.
//
// Everything is deterministic: nodes exchange messages only over
// fixed-latency Ports, every decision stream is seed-derived, and no
// map is ever iterated on a decision path.
package cluster

import "duet/internal/faults"

// The replication log. Each shard replica appends one framed record per
// applied write; the durable watermark advances when the node's
// filesystem commits a checkpoint, so the replayable prefix always
// matches the checkpointed content model. A crash truncates to the
// watermark and may additionally tear bytes off the last committed
// record or flip a byte inside the prefix (per the cluster fault plan);
// replay detects both through the per-record checksum and stops at the
// first bad record — the applied vector degrades to a valid prefix and
// the re-sync widens, but replicas never diverge silently.

// recMagic opens every record; a flipped first byte is detected before
// any field is parsed.
const recMagic = 0xD7

// Record is one replication-log entry: the shard-local page and the
// cluster sequence number that was applied to it.
type Record struct {
	Page int64
	Seq  uint64
}

// Log is the durable replication log of one shard replica.
type Log struct {
	buf     []byte
	durable int // bytes persisted as of the last filesystem commit
}

// fnv32a is the record checksum (FNV-1a over the encoded fields).
func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// putUvarint appends the varint encoding of v (the encoding/binary
// format, inlined so encode stays allocation-free).
func putUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// uvarint decodes a varint from b. n is the bytes consumed; 0 means b
// was exhausted mid-value (a torn tail), negative means the value
// overflowed (corruption).
func uvarint(b []byte) (v uint64, n int) {
	var shift uint
	for i, c := range b {
		if shift >= 64 {
			return 0, -1
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, -1
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// Append frames and appends one record: magic, page and seq as
// varints, then a 4-byte checksum over the varint payload.
func (l *Log) Append(r Record) {
	start := len(l.buf)
	l.buf = append(l.buf, recMagic)
	l.buf = putUvarint(l.buf, uint64(r.Page))
	l.buf = putUvarint(l.buf, r.Seq)
	sum := fnv32a(l.buf[start+1:])
	l.buf = append(l.buf, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// Commit advances the durable watermark to the current end of the log.
// Called when the node's filesystem checkpoint commits, so the durable
// log and the durable content model move together.
func (l *Log) Commit() { l.durable = len(l.buf) }

// Crash models the power cut: the uncommitted tail vanishes, and the
// fault stream may tear bytes off the committed tail (a partially
// persisted final sector) or flip one byte inside the prefix. The
// stream is always advanced by the same four draws regardless of
// outcome, so the node's damage stream stays aligned across replicas
// whatever state each log is in.
func (l *Log) Crash(st *faults.Stream, tornRate, corruptRate float64) {
	tornRoll, tornCut := st.Roll(), st.RollN(8)
	corRoll, corAt := st.Roll(), st.RollN(1<<20)
	l.buf = l.buf[:l.durable]
	if tornRate > 0 && tornRoll < tornRate && len(l.buf) > 0 {
		cut := 1 + tornCut
		if cut > len(l.buf) {
			cut = len(l.buf)
		}
		l.buf = l.buf[:len(l.buf)-cut]
	}
	if corruptRate > 0 && corRoll < corruptRate && len(l.buf) > 0 {
		l.buf[corAt%len(l.buf)] ^= 0x40
	}
	l.durable = len(l.buf)
}

// Replay decodes the committed log in append order, stopping at the
// first damaged record: torn reports a record cut short by the crash,
// corrupt a framing or checksum failure. Everything after the first bad
// record is discarded (and truncated from the log), so the rebuilt
// applied vector is always a valid prefix of the replica's history —
// under-reported state is re-synced from the primary, never trusted.
func (l *Log) Replay() (recs []Record, torn, corrupt bool) {
	b := l.buf
	valid := 0
	for len(b) > 0 {
		if b[0] != recMagic {
			corrupt = true
			break
		}
		rest := b[1:]
		page, n1 := uvarint(rest)
		if n1 == 0 {
			torn = true
			break
		}
		if n1 < 0 {
			corrupt = true
			break
		}
		seq, n2 := uvarint(rest[n1:])
		if n2 == 0 {
			torn = true
			break
		}
		if n2 < 0 {
			corrupt = true
			break
		}
		body := rest[n1+n2:]
		if len(body) < 4 {
			torn = true
			break
		}
		want := uint32(body[0]) | uint32(body[1])<<8 | uint32(body[2])<<16 | uint32(body[3])<<24
		if fnv32a(rest[:n1+n2]) != want {
			corrupt = true
			break
		}
		recs = append(recs, Record{Page: int64(page), Seq: seq})
		consumed := 1 + n1 + n2 + 4
		valid += consumed
		b = b[consumed:]
	}
	if torn || corrupt {
		l.buf = l.buf[:valid]
		l.durable = valid
	}
	return recs, torn, corrupt
}
