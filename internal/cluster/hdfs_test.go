package cluster

import (
	"testing"
	"testing/quick"

	"invarnetx/internal/stats"
)

func TestAllocateReplication(t *testing.T) {
	c := New(4, 40)
	nn := c.name
	ids := nn.allocate(4*BlockSizeMB, c.Slaves())
	if len(ids) != 4 {
		t.Fatalf("blocks = %d, want 4", len(ids))
	}
	for _, id := range ids {
		b := nn.blocks[id]
		if len(b.Replicas) != ReplicationFactor {
			t.Errorf("block %d: %d replicas", id, len(b.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Errorf("block %d replicated twice on node %d", id, r)
			}
			seen[r] = true
		}
		if !b.anyHealthy() {
			t.Errorf("block %d born corrupt", id)
		}
	}
}

func TestAllocateEdgeCases(t *testing.T) {
	c := New(2, 41)
	nn := c.name
	if ids := nn.allocate(0, c.Slaves()); ids != nil {
		t.Errorf("zero input allocated %v", ids)
	}
	if ids := nn.allocate(100, nil); ids != nil {
		t.Errorf("no slaves allocated %v", ids)
	}
	// Sub-block input still gets one block.
	if ids := nn.allocate(10, c.Slaves()); len(ids) != 1 {
		t.Errorf("tiny input blocks = %d, want 1", len(ids))
	}
	// Fewer slaves than the replication factor: replicas capped.
	ids := nn.allocate(BlockSizeMB, c.Slaves())
	if n := len(nn.blocks[ids[0]].Replicas); n != 2 {
		t.Errorf("replicas on 2-slave cluster = %d, want 2", n)
	}
}

func TestCorruptAndRepairCycle(t *testing.T) {
	c := New(4, 42)
	nn := c.name
	nn.allocate(2*BlockSizeMB, c.Slaves())
	rng := stats.NewRNG(43)
	victim := c.Slaves()[0].ID
	if !nn.corruptOn(victim, rng.Intn) {
		t.Fatal("corruption failed despite healthy replicas")
	}
	if got := corruptReplicas(nn); got != 1 {
		t.Fatalf("%d corrupt replicas after one corruption", got)
	}
	src, dst, mb, ok := nn.repairOne()
	if !ok {
		t.Fatal("repair found nothing")
	}
	if mb != BlockSizeMB {
		t.Errorf("repair size = %v", mb)
	}
	if src == dst {
		t.Error("repair copied a block onto itself")
	}
	if dst != victim {
		t.Errorf("repair went to node %d, want the corrupted node %d", dst, victim)
	}
	if _, _, _, ok := nn.repairOne(); ok {
		t.Error("second repair should find nothing")
	}
	if got := corruptReplicas(nn); got != 0 {
		t.Errorf("%d corrupt replicas after the repair", got)
	}
}

func TestCorruptOnNodeWithoutReplicas(t *testing.T) {
	c := New(4, 44)
	nn := c.name
	rng := stats.NewRNG(45)
	if nn.corruptOn(c.Slaves()[0].ID, rng.Intn) {
		t.Error("corruption succeeded with no blocks stored")
	}
}

func TestRepairSkipsFullyLostBlocks(t *testing.T) {
	c := New(4, 46)
	nn := c.name
	ids := nn.allocate(BlockSizeMB, c.Slaves())
	b := nn.blocks[ids[0]]
	for i := range b.Corrupt {
		b.Corrupt[i] = true
	}
	if _, _, _, ok := nn.repairOne(); ok {
		t.Error("repair claims to fix a block with no healthy source")
	}
}

// Property: however corruption and repair interleave, a block never gains or
// loses replicas, and the replicas left corrupt are exactly the corruptions
// that succeeded minus the repairs that did.
func TestCorruptRepairInvariantProperty(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		c := New(4, seed)
		nn := c.name
		nn.allocate(3*BlockSizeMB, c.Slaves())
		rng := stats.NewRNG(seed + 1)
		outstanding := 0
		for _, corrupt := range ops {
			if corrupt {
				if nn.corruptOn(rng.Intn(4)+1, rng.Intn) {
					outstanding++
				}
			} else if _, _, _, ok := nn.repairOne(); ok {
				outstanding--
			}
		}
		for _, b := range nn.blocks {
			if len(b.Replicas) != ReplicationFactor || len(b.Corrupt) != ReplicationFactor {
				return false
			}
		}
		return corruptReplicas(nn) == outstanding
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
