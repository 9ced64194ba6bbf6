package cluster

// The cluster speaks one message type over every port; Kind selects the
// meaning and the other fields are kind-specific. Slices inside a Msg
// (Pages, Vec, Alive, Ranks) are frozen at send: the sender builds a
// fresh slice per message and never writes to it afterwards, and
// receivers treat them as read-only, so a receiver never observes a
// sender's later changes.

// MsgKind enumerates the protocol vocabulary.
type MsgKind uint8

const (
	// Client RPCs (coordinator -> node, replied on the node's ToCoord).
	MsgWrite MsgKind = iota
	MsgWriteReply
	MsgRead
	MsgReadReply

	// Replication (primary -> follower/learner; ack back).
	MsgReplicate
	MsgReplAck

	// Liveness and membership (coordinator <-> node).
	MsgPing
	MsgPong
	MsgMembership

	// Recovery and repair.
	MsgJoin        // node -> coord: remounted; per-shard applied vector
	MsgRepairCmd   // coord -> source node: re-replicate Shard to Dest
	MsgRepairData  // source -> dest: batch of (page, seq); Done on last
	MsgShardSynced // dest -> coord: Shard fully re-replicated here
	MsgVecReq      // coord -> node: re-send MsgJoin for Shard
)

// PageSeq is one page of repair payload: the page and the sequence
// number its content carries at the source.
type PageSeq struct {
	Page int64
	Seq  uint64
}

// Msg is the single wire type.
type Msg struct {
	Kind  MsgKind
	From  int   // sender node index; -1 for the coordinator
	ID    int64 // RPC correlation id (client ops, replication acks)
	Shard int
	Dest  int   // MsgRepairCmd: node being re-replicated
	Page  int64 // MsgWrite/MsgRead/MsgReplicate
	Seq   uint64
	Epoch uint64
	OK    bool

	// NeedAck distinguishes in-service replication (the primary waits
	// for the ack before acknowledging the client) from learner
	// replication to a recovering node (fire and forget).
	NeedAck bool
	// Done marks the final MsgRepairData batch of a shard repair.
	Done bool

	Pages []PageSeq // MsgRepairData
	Vec   []uint64  // MsgJoin / MsgRepairCmd: per-page applied vector
	Alive []bool    // MsgMembership
	// Ranks lists, per shard, the in-service (alive and synced) replicas
	// in placement order; Ranks[s][0] is the primary.
	Ranks [][]int // MsgMembership
}
