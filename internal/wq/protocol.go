// Package wq is a small Work Queue-style manager/worker execution engine —
// the live counterpart of the discrete-event simulator. A manager listens on
// TCP, workers connect and advertise their capacity, and the manager
// dispatches tasks with allocations obtained from an allocator policy
// (Figure 1 / Figure 3a of the paper: the scheduler provisions resources for
// each ready task and sends it to an available worker; the worker enforces
// the allocation, kills over-consuming tasks, and returns the resource
// record).
//
// Task "execution" is virtual: each task carries its consumption profile and
// the worker advances it through a scaled wall-clock sleep while enforcing
// the allocation with the same resource-monitor rules the simulator uses
// (sim.EvaluateAttempt). This substitutes for running real payloads while
// exercising a real distributed control path: connection handling,
// dispatch-time allocation, failure/retry round trips, and concurrent
// workers.
//
// The wire protocol is internal/wire's length-prefixed binary frames with
// the fixed payload layout of codec.go; both ends ship from this tree and
// speak exactly one version.
package wq

import "dynalloc/internal/resources"

// Message is the single frame type of the protocol; Type selects which
// fields are meaningful (and the only ones the wire carries).
type Message struct {
	Type MsgType

	// register (worker -> manager)
	Capacity resources.Vector

	// task (manager -> worker)
	TaskID   int
	Category string
	Alloc    resources.Vector
	Peak     resources.Vector
	Runtime  float64

	// result (worker -> manager): TaskID, and
	Status   Status
	Duration float64
	Exceeded resources.KindSet

	// shutdown (manager -> worker)

	// ping (manager -> worker) / pong (worker -> manager): the liveness
	// probe. The manager's sweeper pings every worker each heartbeat
	// interval; any frame from the worker (pong or result) refreshes its
	// last-seen time, and a worker silent past the heartbeat timeout is
	// declared lost and its tasks requeued.
}

// MsgType is the type byte of a frame. Zero is not a frame type.
type MsgType uint8

// Message types.
const (
	MsgRegister MsgType = iota + 1
	MsgTask
	MsgResult
	MsgShutdown
	MsgPing
	MsgPong
)

// Status is how an attempt ended, as a result frame carries it. Zero is not a
// status.
type Status uint8

// Statuses carried by result messages.
const (
	StatusSuccess Status = iota + 1
	StatusExhausted
)

// String is the status as traces and run logs spell it.
func (s Status) String() string {
	if s == StatusSuccess {
		return "success"
	}
	return "exhausted"
}
