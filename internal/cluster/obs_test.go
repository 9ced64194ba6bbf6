package cluster

import (
	"testing"

	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/sim"
)

// TestStackRegistriesMergedOnce: every stack that records into a
// private registry — each cluster node's, on its own domain — must have
// that registry merged into the collection target exactly once. A
// dropped merge loses the stack's histograms (the target count is 0); a
// doubled one reports twice the samples.
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
}
