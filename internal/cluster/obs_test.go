package cluster

import (
	"fmt"
	"testing"

	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/sim"
	"duet/internal/storage"
)

// TestStackRegistriesMergedOnce: every stack that records into a
// private registry — a cluster node, a shard of a sharded machine —
// must have that registry merged into the collection target exactly
// once. A dropped merge loses the stack's histograms (the target count
// is 0); a doubled one reports twice the samples.
func TestStackRegistriesMergedOnce(t *testing.T) {
	check := func(t *testing.T, collect func(*obs.Registry), stacks []*machine.Stack) {
		t.Helper()
		reg := obs.NewRegistry()
		collect(reg)
		for _, st := range stacks {
			name := "storage." + st.Disk.Name + ".service_us"
			own := st.Obs.Metrics.Histogram(name, nil).Count()
			if got := reg.Histogram(name, nil).Count(); got != own || own == 0 {
				t.Errorf("%s: collected count %d, stack's own %d (want equal and > 0)", name, got, own)
			}
		}
	}

	t.Run("cluster", func(t *testing.T) {
		cfg := testConfig(RepairNaive, faults.ClusterPlan{})
		cfg.Nodes, cfg.Replicas, cfg.Shards = 2, 2, 1
		cfg.Window = 2 * sim.Second
		cfg.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
		c, _, _ := runCluster(t, cfg, 1)
		var stacks []*machine.Stack
		for _, n := range c.Nodes {
			stacks = append(stacks, n.Stack())
		}
		check(t, c.CollectMetrics, stacks)
	})

	t.Run("sharded", func(t *testing.T) {
		m, err := machine.NewSharded(machine.ShardedConfig{
			Config: machine.Config{
				Seed: 3, DeviceBlocks: 1 << 12, CachePages: 64,
				Obs: &obs.Obs{Metrics: obs.NewRegistry()},
			},
			Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		files, err := m.Populate(machine.DefaultPopulateSpec("/data", 256))
		if err != nil {
			t.Fatal(err)
		}
		var stacks []*machine.Stack
		for i, sh := range m.Shards {
			sh, files := sh, files[i]
			stacks = append(stacks, sh.Stack)
			sh.Host.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
				for _, f := range files {
					if err := sh.FS.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		if err := m.Eng.RunFor(sim.Second); err != nil {
			t.Fatal(err)
		}
		check(t, m.CollectMetrics, stacks)
	})
}
