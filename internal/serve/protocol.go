// Package serve is the allocator-as-a-service front end: a long-lived
// concurrent TCP service that wraps allocator.Allocator for many independent
// workflows (tenants) at once. Each tenant gets isolated per-category
// record.List/bucketing state behind its own allocator instance and its own
// lock, so one tenant's slow bucketing recompute never blocks another's
// predictions; within a tenant, observations are O(1) appends and
// predictions recompute lazily from record.View snapshots, inheriting the
// embedded allocator's snapshot-read model. Long-lived tenants stay
// memory-bounded through record decay: once a category accumulates
// MaxRecords observations, the service resets it and replays only the most
// recent DecayWindow records (Section V-A's recency weighting makes the old
// tail nearly weightless anyway).
//
// The wire is internal/wire's, the one the wq engine runs on too:
// length-prefixed binary frames, each carrying the fixed payload layout of
// codec.go, read through a bounded reader and staged on each connection's
// outbox, whose one writer goroutine makes every write, under a deadline. A connection registers a
// tenant first, then streams request/retry/observe/ping/stats frames;
// request, retry, ping, and stats carry a client-chosen Seq echoed in the
// response. Observations are one-way — the per-connection ordering
// guarantees they are applied before any later request on the same
// connection. Both ends ship from this tree: a peer on another protocol is
// refused with wire.ErrProtocolMismatch, and a malformed frame is counted
// (Server.DecodeErrors) and costs its sender the connection. The server runs
// on wire.Server, the lifecycle wq.Manager runs on too: Close stops
// accepting, sends every client a drain frame, and closes the connections
// still open after a bounded grace.
//
// Writes are coalesced rather than made per frame: the Client's calls
// group-commit on its outbox (wire.Outbox.Commit; a lone call kicks) and its
// observes leave with the next call, batch kick or Close; the server kicks
// its replies' writer when its reader is about to block. The Client pipelines — many goroutines can have
// calls in flight on one connection, bounded by WithPipelineWindow, with
// AllocateBatch for bulk request streams — and a steady-state round trip
// allocates nothing on either side. See DESIGN.md §15 for the wire and its
// performance model.
package serve

import (
	"dynalloc/internal/resources"
)

// Frame is the single message type of the service protocol; Type selects
// which fields are meaningful (and the only ones the wire carries).
type Frame struct {
	Type FrameType

	// Seq correlates a request with its response on frames that have one
	// (request, retry, ping, stats, and the alloc, pong, stats or error
	// answering them). Chosen by the client, echoed verbatim.
	Seq uint64

	// register (client -> server), ack (server -> client)
	Tenant    string
	Algorithm string // empty = exhaustive-bucketing
	Seed      uint64 // register only

	// request / retry / observe (client -> server)
	Category string
	TaskID   int

	// retry (client -> server)
	Prev     resources.Vector
	Exceeded resources.KindSet

	// observe (client -> server)
	Peak    resources.Vector
	Runtime float64

	// alloc (server -> client): the prediction for a request or retry.
	Alloc resources.Vector

	// stats (server -> client); a stats request carries it zeroed.
	Stats TenantStats

	// error (server -> client): a failed frame; Seq echoes the offender
	// when it carried one.
	Error string
}

// FrameType is the type byte of a frame. Zero is not a frame type.
type FrameType uint8

// Frame types. Client to server: register, request, retry, observe, ping,
// stats. Server to client: ack (register accepted), alloc, pong, stats,
// error, drain.
const (
	TypeRegister FrameType = iota + 1
	TypeRequest
	TypeRetry
	TypeObserve
	TypePing
	TypeStats

	TypeAck
	TypeAlloc
	TypePong
	TypeError
	// TypeDrain tells the client the server is closing: no further frames
	// will be answered, finish up and disconnect.
	TypeDrain
)

// TenantStats is a point-in-time snapshot of one tenant's service counters,
// returned by the stats frame and by Server.Stats.
type TenantStats struct {
	Tenant string
	// Connections currently registered to this tenant.
	Connections int
	// Allocates / Retries / Observes count frames served over the tenant's
	// lifetime (across connections, surviving reconnects).
	Allocates int64
	Retries   int64
	Observes  int64
	// Decays counts category resets performed by the record-decay policy.
	Decays int64
	// Categories is the number of distinct task categories observed.
	Categories int
	// Records is the current record count summed over categories — bounded
	// by categories × MaxRecords when decay is enabled.
	Records int
}
