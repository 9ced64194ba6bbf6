package experiments

import "testing"

// TestShardCellProgress checks the cross-domain control path end to end:
// the coordinator's start command reaches every shard and progress
// reports flow back over the window.
func TestShardCellProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded cell at tiny scale is a full simulation")
	}
	r, err := runShardCell(ScaleTiny, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.reports < shardCount {
		t.Fatalf("coordinator saw %d reports, want at least one per shard (%d)", r.reports, shardCount)
	}
	if r.workCompleted <= 0 {
		t.Fatal("no scrub work completed in the window")
	}
}
