package cluster

import (
	"duet/internal/core"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Re-replication. The coordinator picks the shard's primary as the
// repair source and hands it the destination's applied vector; the
// source ships every page whose sequence differs (authoritative
// overwrite, both directions), batched over the FIFO port to the
// destination. Writes that land during the repair reach the
// destination through the learner replication stream, so the manifest
// snapshot plus the stream leave no gap.
//
// Two strategies differ only in how the source touches its own data:
//
//   - naive: walk every allocated page of the shard file and read it
//     from the medium (VerifyBlock, owner "repair") — the full-scan
//     cost a repairer pays when it has no idea what is resident.
//   - duet: register a Duet block-task session; the registration scan
//     and subsequent events surface cache-resident pages, which are
//     shipped straight from memory. Only manifest pages the cache
//     never surfaces are read from the medium.
//
// Both ship the same pages; the experiment compares their disk reads.

// repairShard runs on the source node's domain, spawned by the server
// loop when MsgRepairCmd arrives.
func (n *Node) repairShard(rp *sim.Proc, shard, dest int, destVec []uint64) {
	r := n.rep(shard)
	if r == nil || dest < 0 || dest >= len(n.peers) {
		return
	}
	// Manifest: pages whose content differs from the destination's
	// announced state, snapshotted now. Later writes are learner-streamed.
	pages := int64(len(r.applied))
	pending := make([]bool, pages)
	left := 0
	for pg := int64(0); pg < pages; pg++ {
		dv := uint64(0)
		if pg < int64(len(destVec)) {
			dv = destVec[pg]
		}
		if r.applied[pg] != dv {
			pending[pg] = true
			left++
		}
	}

	aborted := func() bool {
		return rp.Engine().Stopping() || !n.alive ||
			n.aliveV == nil || dest >= len(n.aliveV) || !n.aliveV[dest]
	}

	// A batch carries each page's sequence as of its send, not of when
	// the page joined it: the source may apply a client write to a
	// batched page while a later ship blocks, and the learner stream
	// delivers that write ahead of the batch. The port is FIFO, so
	// writes after the send still follow the batch.
	var batch []PageSeq
	flush := func(done bool) {
		if len(batch) == 0 && !done {
			return
		}
		for k := range batch {
			batch[k].Seq = r.applied[batch[k].Page]
		}
		n.peers[dest].Send(rp, Msg{
			Kind: MsgRepairData, From: n.idx, Shard: shard,
			Pages: batch, Done: done,
		})
		n.stats.PagesShipped += int64(len(batch))
		batch = nil
	}
	ship := func(pg int64) {
		if !pending[pg] {
			return
		}
		pending[pg] = false
		left--
		batch = append(batch, PageSeq{Page: pg})
		if len(batch) >= repairBatch {
			flush(false)
		}
	}

	if n.c.Cfg.Mode == RepairDuet {
		n.repairDuet(rp, r, pending, &left, ship, aborted)
	} else {
		n.repairNaive(rp, r, ship, aborted)
	}
	if aborted() {
		return
	}
	flush(true)
}

// repairNaive reads every allocated page of the shard file from the
// medium — membership told it which pages to ship, but it trusts
// nothing it did not just read back.
func (n *Node) repairNaive(rp *sim.Proc, r *replica, ship func(int64), aborted func() bool) {
	for pg := int64(0); pg < int64(len(r.applied)); pg++ {
		if aborted() {
			return
		}
		if blk, ok := n.st.FS.Fibmap(r.ino, pg); ok {
			if _, err := n.st.FS.VerifyBlock(rp, blk, storage.ClassNormal, "repair"); err != nil {
				continue
			}
			n.stats.RepairDiskReads++
		}
		ship(pg)
	}
}

// repairDuet harvests the cache. The block-task session's registration
// scan delivers every already-resident page of the filesystem; pages on
// the manifest that surface this way (and are still resident) ship
// without touching the disk. A cursor sweep mops up the remainder with
// real reads, harvesting between batches so pages cached mid-repair
// still get the cheap path.
func (n *Node) repairDuet(rp *sim.Proc, r *replica, pending []bool, left *int,
	ship func(int64), aborted func() bool) {
	sess, err := n.st.Duet.RegisterBlock(n.st.Adapter, core.EvtAdded|core.EvtDirtied)
	if err != nil {
		n.repairNaive(rp, r, ship, aborted)
		return
	}
	defer sess.Close()

	// Device block -> manifest page, built once from the extent map.
	blockOf := make([]int64, len(pending))
	toPage := make(map[uint64]int64, *left)
	for pg := range pending {
		blockOf[pg] = -1
		if !pending[pg] {
			continue
		}
		if blk, ok := n.st.FS.Fibmap(r.ino, int64(pg)); ok {
			blockOf[pg] = blk
			toPage[uint64(blk)] = int64(pg)
		}
	}

	buf := make([]core.Item, 64)
	harvest := func() {
		for {
			got := sess.FetchInto(buf)
			if got == 0 {
				return
			}
			for _, it := range buf[:got] {
				pg, ok := toPage[it.ID]
				if !ok || !pending[pg] {
					continue
				}
				key := pagecache.PageKey{
					FS: n.st.FS.ID(), Ino: uint64(r.ino), Index: uint64(pg),
				}
				if _, resident := n.st.Cache.Peek(key); !resident {
					continue
				}
				// Resident: ship from memory, no device read.
				n.stats.RepairCacheHits++
				sess.SetDone(it.ID)
				ship(pg)
			}
		}
	}
	// The lossy-queue fallback: a degraded range means events were
	// dropped; consuming it keeps the session sane. The cursor sweep
	// covers anything the drop hid.
	sess.TakeDegradedRange()

	harvest()
	for pg := int64(0); pg < int64(len(pending)) && *left > 0; pg++ {
		if aborted() {
			return
		}
		if !pending[pg] {
			continue
		}
		if blk := blockOf[pg]; blk >= 0 {
			if _, err := n.st.FS.VerifyBlock(rp, blk, storage.ClassNormal, "repair"); err == nil {
				n.stats.RepairDiskReads++
			}
			sess.SetDone(uint64(blk))
		}
		ship(pg)
		harvest()
	}
}
