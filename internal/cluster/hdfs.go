package cluster

// BlockID identifies an HDFS block.
type BlockID int

// BlockSizeMB is the simulated HDFS block size (64 MB, Hadoop 1.x default).
const BlockSizeMB = 64

// ReplicationFactor is the number of replicas per block.
const ReplicationFactor = 3

// Block is a stored HDFS block replica set.
type Block struct {
	ID BlockID
	// Replicas lists node IDs holding a replica.
	Replicas []int
	// Corrupt marks per-replica corruption (index-aligned with Replicas).
	Corrupt []bool
}

// healthyReplicaOn reports whether node id holds a healthy replica.
func (b *Block) healthyReplicaOn(id int) bool {
	for i, r := range b.Replicas {
		if r == id && !b.Corrupt[i] {
			return true
		}
	}
	return false
}

// anyHealthy reports whether at least one replica is intact.
func (b *Block) anyHealthy() bool {
	for _, c := range b.Corrupt {
		if !c {
			return true
		}
	}
	return false
}

// NameNode tracks block placement. It lives on the master node.
type NameNode struct {
	nextBlock BlockID
	blocks    map[BlockID]*Block
}

func newNameNode() *NameNode {
	return &NameNode{blocks: make(map[BlockID]*Block)}
}

// allocate places the blocks of a job input across the slave nodes
// round-robin with ReplicationFactor replicas, returning the block ids.
func (nn *NameNode) allocate(inputMB float64, slaves []*Node) []BlockID {
	if inputMB <= 0 || len(slaves) == 0 {
		return nil
	}
	nBlocks := int(inputMB / BlockSizeMB)
	if nBlocks < 1 {
		nBlocks = 1
	}
	ids := make([]BlockID, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		id := nn.nextBlock
		nn.nextBlock++
		b := &Block{ID: id}
		for r := 0; r < ReplicationFactor && r < len(slaves); r++ {
			node := slaves[(i+r)%len(slaves)]
			b.Replicas = append(b.Replicas, node.ID)
			b.Corrupt = append(b.Corrupt, false)
			node.blocks[id] = b
		}
		nn.blocks[id] = b
		ids = append(ids, id)
	}
	return ids
}

// corruptOn marks one healthy replica on node id as corrupt, returning
// whether anything was corrupted. The Block-C fault calls this.
func (nn *NameNode) corruptOn(nodeID int, pick func(n int) int) bool {
	var candidates []*Block
	for _, b := range nn.blocks {
		if b.healthyReplicaOn(nodeID) {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return false
	}
	b := candidates[pick(len(candidates))]
	for i, r := range b.Replicas {
		if r == nodeID && !b.Corrupt[i] {
			b.Corrupt[i] = true
			return true
		}
	}
	return false
}

// repairOne re-replicates one corrupt replica if a healthy source exists.
// It returns the extra network/disk work as a (source, dest) demand pair to
// charge, or ok=false when nothing needs repair. The cluster engine calls
// this once per tick, so corruption storms translate into sustained
// re-replication traffic — the Block-C signature.
func (nn *NameNode) repairOne() (srcID, dstID int, mb float64, ok bool) {
	for _, b := range nn.blocks {
		if !b.anyHealthy() {
			continue // permanently lost; nothing to copy from
		}
		for i, c := range b.Corrupt {
			if !c {
				continue
			}
			// Healthy source.
			src := -1
			for k, cc := range b.Corrupt {
				if !cc {
					src = b.Replicas[k]
					break
				}
			}
			if src < 0 {
				continue
			}
			b.Corrupt[i] = false
			return src, b.Replicas[i], BlockSizeMB, true
		}
	}
	return 0, 0, 0, false
}
