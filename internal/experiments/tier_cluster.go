package experiments

import (
	"fmt"
	"io"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/sim"
)

// The cluster tier experiment: replicated sharded volumes under
// machine-kill fault plans, comparing the naive re-replicator (full
// disk scan of the surviving primary) against the Duet-assisted
// repairer (cache-resident pages ship from memory). Every plan must
// end with zero lost blocks and every replica back in service; on the
// kill plans the Duet repairer must read strictly fewer disk blocks
// than the naive scan — that is the paper's opportunistic-maintenance
// claim lifted to the cluster layer.
//
// Device faults in this sweep are limited to transient errors and
// stalls: latent and permanent sector damage is the single-machine
// sweep's subject ("faults"), while this tier exercises whole-machine
// loss and network failure around it.

// clusterRow is one fault plan of the sweep.
type clusterRow struct {
	name string
	plan func(w sim.Time) faults.ClusterPlan
	// kills notes whether the plan takes machines down (and therefore
	// whether the naive-vs-duet disk-read comparison is meaningful).
	kills bool
}

func clusterRows() []clusterRow {
	return []clusterRow{
		{name: "fault-free", plan: func(w sim.Time) faults.ClusterPlan {
			return faults.ClusterPlan{}
		}},
		{name: "single-kill", kills: true, plan: func(w sim.Time) faults.ClusterPlan {
			return faults.ClusterPlan{
				Kills: []faults.KillEvent{
					{Node: 1, At: w / 5, RecoverAt: w/5 + w/4},
				},
			}
		}},
		{name: "double-kill", kills: true, plan: func(w sim.Time) faults.ClusterPlan {
			return faults.ClusterPlan{
				Kills: []faults.KillEvent{
					{Node: 1, At: w / 5, RecoverAt: w/5 + w/4},
					{Node: 2, At: w / 4, RecoverAt: w/4 + w/4},
				},
			}
		}},
		{name: "rekill", kills: true, plan: func(w sim.Time) faults.ClusterPlan {
			return faults.ClusterPlan{
				Kills: []faults.KillEvent{
					{Node: 1, At: w / 6, RecoverAt: w/6 + w/10},
					{Node: 1, At: w / 2, RecoverAt: w/2 + w/10},
				},
			}
		}},
		{name: "torn-log+net", kills: true, plan: func(w sim.Time) faults.ClusterPlan {
			return faults.ClusterPlan{
				Kills: []faults.KillEvent{
					{Node: 1, At: w / 5, RecoverAt: w/5 + w/4},
				},
				Partitions: []faults.Partition{
					{A: 2, B: 3, From: w / 15, To: 2 * w / 15},
				},
				TornLogRate:    1.0,
				CorruptLogRate: 0.5,
				Disk: faults.Plan{
					TransientReadRate:  0.01,
					TransientWriteRate: 0.01,
					StallRate:          0.005,
					StallDelay:         2 * sim.Millisecond,
				},
			}
		}},
	}
}

// clusterConfig sizes one cluster cell from the scale: four nodes,
// three-way replication, a quarter of the scale's cache per node, and
// shards sized so the full replicated set stays a small multiple of
// the single-machine population.
func clusterConfig(s Scale, seed int64, mode cluster.RepairMode,
	plan faults.ClusterPlan, o *obs.Obs) cluster.Config {
	shardPages := s.DataPages / 256
	if shardPages < 16 {
		shardPages = 16
	}
	plan.Seed = uint64(seed)*0x9e3779b97f4a7c15 + 0xb5
	return cluster.Config{
		Config: machine.Config{
			Seed:         seed,
			DeviceBlocks: s.DeviceBlocks / 16,
			CachePages:   s.CachePages / 4,
			Obs:          o,
		},
		Nodes:      4,
		Replicas:   3,
		Shards:     4,
		ShardPages: shardPages,
		Window:     s.Window,
		Mode:       mode,
		Plan:       plan,
	}
}

// clusterCell runs one (row, mode, seed) cell to completion and checks
// its safety assertions.
func clusterCell(rc *RunConfig, seed int64, row clusterRow,
	mode cluster.RepairMode) (cluster.Stats, error) {
	o := rc.newObs()
	cfg := clusterConfig(rc.Scale, seed, mode, row.plan(rc.Scale.Window), o)
	c, err := cluster.New(cfg)
	if err != nil {
		return cluster.Stats{}, err
	}
	if err := c.Eng.RunFor(cfg.Window); err != nil {
		return cluster.Stats{}, err
	}
	st := c.Stats()
	rep := c.Audit()

	if len(rep.NodeErrors) > 0 {
		return st, fmt.Errorf("node failed to recover: %v", rep.NodeErrors[0])
	}
	if rep.LostBlocks != 0 {
		return st, fmt.Errorf("%d acked blocks lost (want 0)", rep.LostBlocks)
	}
	if rep.UnsyncedReplicas != 0 || rep.DeadNodes != 0 {
		return st, fmt.Errorf("not fully re-replicated: %d unsynced, %d dead",
			rep.UnsyncedReplicas, rep.DeadNodes)
	}
	if rep.MediumErrors != 0 {
		return st, fmt.Errorf("%d medium checksum failures", rep.MediumErrors)
	}
	if st.ConsistencyViolations != 0 {
		return st, fmt.Errorf("%d stale primary reads", st.ConsistencyViolations)
	}

	// Cells run sequentially, so trace collection order is the
	// deterministic row × mode × seed input order.
	rc.fold(observe(o, c, c.TraceProcesses(fmt.Sprintf("cluster %s %v seed%d", row.name, mode, seed))...))
	return st, nil
}

func runClusterTier(c *RunConfig, w io.Writer) error {
	fmt.Fprintf(w, "%-14s %-6s %7s %6s %8s %9s %9s %8s %9s %6s\n",
		"plan", "mode", "acked", "kills", "repairs", "degr_ms", "repair_ms",
		"shipped", "diskreads", "hits")
	for _, row := range clusterRows() {
		var disk [2]int64
		for mi, mode := range []cluster.RepairMode{cluster.RepairNaive, cluster.RepairDuet} {
			var agg cluster.Stats
			for _, seed := range seeds(c.Scale) {
				st, err := clusterCell(c, seed, row, mode)
				if err != nil {
					return fmt.Errorf("cluster %s %v seed %d: %w", row.name, mode, seed, err)
				}
				addClusterStats(&agg, st)
			}
			disk[mi] = agg.RepairDiskReads
			fmt.Fprintf(w, "%-14s %-6v %7d %6d %8d %9d %9d %8d %9d %6d\n",
				row.name, mode, agg.WritesAcked, agg.Kills, agg.ShardRepairs,
				agg.DegradedUs/1000, agg.RepairWindowUs/1000,
				agg.PagesShipped, agg.RepairDiskReads, agg.RepairCacheHits)
		}
		if row.kills && disk[1] >= disk[0] {
			return fmt.Errorf("cluster %s: duet repair read %d disk blocks, naive %d (want strictly fewer)",
				row.name, disk[1], disk[0])
		}
	}
	return nil
}

// addClusterStats sums, over seeds, the counters runClusterTier prints.
func addClusterStats(a *cluster.Stats, o cluster.Stats) {
	a.WritesAcked += o.WritesAcked
	a.Kills += o.Kills
	a.ShardRepairs += o.ShardRepairs
	a.DegradedUs += o.DegradedUs
	a.RepairWindowUs += o.RepairWindowUs
	a.PagesShipped += o.PagesShipped
	a.RepairDiskReads += o.RepairDiskReads
	a.RepairCacheHits += o.RepairCacheHits
}

func init() {
	register(Experiment{
		ID:    "cluster",
		Title: "Cluster tier: replicated shards, machine kills, Duet-assisted repair",
		Exec:  runClusterTier,
	})
}
