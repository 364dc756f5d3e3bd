// Package devent is a minimal discrete-event simulation engine: a virtual
// clock and a future-event list ordered by (time, scheduling sequence), with
// cancellable events. The (time, sequence) ordering makes every simulation
// deterministic: events scheduled for the same instant fire in scheduling
// order.
//
// The engine is built for zero steady-state allocation. Events live in a
// pooled slice with an intrusive free list and are addressed by
// generation-counted Handles rather than pointers, so a recycled slot can
// never be cancelled through a stale handle. The future-event list is a
// specialized 4-ary min-heap over inline (time, seq, slot) entries — no
// container/heap, no interface boxing, swap-free sifts — with an O(n)
// heapify bulk-load (Preload) for up-front schedules. Events carry a Kind tag
// and a small inline Payload, dispatched through the single owner callback
// registered with SetHandler, so scheduling allocates nothing per event.
package devent

import (
	"fmt"
	"slices"
)

// Kind tags a typed event. The meaning of each value is owned by the engine
// user; the engine only stores and returns it.
type Kind uint8

// Payload is the inline payload of a typed event: two integer operands
// (e.g. a worker id and a task index), one float operand (e.g. a duration),
// and a flag. It is carried by value — nothing escapes to the heap.
type Payload struct {
	A, B int
	F    float64
	Flag bool
}

// Handler receives every typed event when it fires.
type Handler func(kind Kind, p Payload)

// Handle identifies a scheduled event. It is a value (slot + generation),
// not a pointer: once the event fires or is cancelled its slot may be
// recycled, and the generation counter guarantees a stale Handle can never
// affect the slot's next occupant. The zero Handle is invalid and safely
// inert.
type Handle struct {
	slot int32 // pool index + 1, so the zero Handle matches no slot
	gen  uint32
}

// Scheduled is one entry of a Preload batch.
type Scheduled struct {
	At   float64
	Kind Kind
	P    Payload
}

// event is one pooled event slot.
type event struct {
	at      float64
	a, b    int
	f       float64
	heapIdx int32 // index into Engine.heap, -1 while the slot is free
	gen     uint32
	kind    Kind
	flag    bool
}

// heapEntry is one future-event list entry. The ordering key (time, seq) is
// inline so sift comparisons never chase into the event pool.
type heapEntry struct {
	at   float64
	seq  uint64
	slot int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the simulation clock and event queue. The zero value is ready
// to use at time 0.
type Engine struct {
	now     float64
	seq     uint64
	handler Handler
	events  []event     // slot pool
	free    []int32     // free slot stack
	heap    []heapEntry // 4-ary min-heap by (at, seq)
	cancels int
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of live scheduled events in O(1). Cancelled
// events are removed from the queue immediately, so — unlike the previous
// tombstoning engine — the count never includes cancelled-but-unreaped
// events.
func (e *Engine) Pending() int { return len(e.heap) }

// Cancels returns the cumulative number of successfully cancelled events.
func (e *Engine) Cancels() int { return e.cancels }

// SetHandler registers the single owner callback for typed events. It must
// be set before any typed event is scheduled.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Schedule schedules a typed event at absolute virtual time t. Scheduling in
// the past panics: it would silently corrupt causality. So does scheduling
// with no handler registered (the event could never be delivered).
func (e *Engine) Schedule(t float64, kind Kind, p Payload) Handle {
	if t < e.now {
		panic(fmt.Sprintf("devent: scheduling at %v before now %v", t, e.now))
	}
	if e.handler == nil {
		panic("devent: Schedule before SetHandler")
	}
	return e.push(t, kind, p)
}

// ScheduleAfter schedules a typed event d virtual seconds from now.
func (e *Engine) ScheduleAfter(d float64, kind Kind, p Payload) Handle {
	return e.Schedule(e.now+d, kind, p)
}

// Preload bulk-loads a batch of typed events into an engine whose queue is
// empty, heapifying in O(n) instead of n·O(log n) pushes. Sequence numbers
// are assigned in slice order, so same-instant entries fire in slice order
// — exactly as if each had been scheduled with a Schedule call. It panics
// on a non-empty queue, an unset handler, or an entry in the past.
func (e *Engine) Preload(items []Scheduled) {
	if len(e.heap) != 0 {
		panic("devent: Preload on a non-empty queue")
	}
	if e.handler == nil {
		panic("devent: Preload before SetHandler")
	}
	if cap(e.heap) < len(items) {
		e.heap = make([]heapEntry, 0, len(items))
	}
	// Size the slot pool for the batch up front rather than regrowing it
	// by append as the slots are taken.
	if fresh := len(items) - len(e.free); fresh > 0 {
		e.events = slices.Grow(e.events, fresh)
	}
	sorted := true
	for _, it := range items {
		if it.At < e.now {
			panic(fmt.Sprintf("devent: scheduling at %v before now %v", it.At, e.now))
		}
		if n := len(e.heap); n > 0 && it.At < e.heap[n-1].at {
			sorted = false
		}
		slot := e.allocSlot(it.At, it.Kind, it.P)
		e.heap = append(e.heap, heapEntry{at: it.At, seq: e.seq, slot: slot})
		e.events[slot].heapIdx = int32(len(e.heap) - 1)
		e.seq++
	}
	// A time-sorted batch (the common case: Model schedules are sorted by
	// arrival time, and seq ascends by construction) is already a valid
	// min-heap in array order; otherwise Floyd heapify, sifting each
	// internal node down last parent first.
	if sorted {
		return
	}
	for i := (len(e.heap) - 2) / 4; i >= 0; i-- {
		e.siftDown(i, e.heap[i])
	}
}

// Cancel prevents the event from firing and releases its slot, removing it
// from the queue in O(log n) via the maintained heap index. It reports
// whether an event was actually cancelled: cancelling an already-fired,
// already-cancelled, or zero Handle is a no-op returning false — a recycled
// slot's new occupant is protected by the generation counter.
func (e *Engine) Cancel(h Handle) bool {
	ev := e.resolve(h)
	if ev == nil {
		return false
	}
	e.removeAt(int(ev.heapIdx))
	e.freeSlot(h.slot - 1)
	e.cancels++
	return true
}

// Live reports whether the handle refers to a still-scheduled event.
func (e *Engine) Live(h Handle) bool { return e.resolve(h) != nil }

// TimeOf returns the virtual time a live event is scheduled for; ok is
// false when the handle is stale (fired, cancelled, or zero).
func (e *Engine) TimeOf(h Handle) (at float64, ok bool) {
	ev := e.resolve(h)
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// resolve maps a handle to its pooled event iff the handle is current and
// the event is still queued.
func (e *Engine) resolve(h Handle) *event {
	s := h.slot - 1
	if s < 0 || int(s) >= len(e.events) {
		return nil
	}
	ev := &e.events[s]
	if ev.gen != h.gen || ev.heapIdx < 0 {
		return nil
	}
	return ev
}

// Step fires the next event. It returns false when the queue is exhausted.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	ev := &e.events[top.slot]
	e.now = top.at
	kind, p := ev.kind, Payload{A: ev.a, B: ev.b, F: ev.f, Flag: ev.flag}
	ev.heapIdx = -1
	e.freeSlot(top.slot)
	e.handler(kind, p)
	return true
}

// Run drains the event queue. Callbacks may schedule further events.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil drains events scheduled at or before deadline, then advances the
// clock to deadline (if it is in the future).
func (e *Engine) RunUntil(deadline float64) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// push schedules one event and returns its handle.
func (e *Engine) push(t float64, kind Kind, p Payload) Handle {
	slot := e.allocSlot(t, kind, p)
	gen := e.events[slot].gen
	entry := heapEntry{at: t, seq: e.seq, slot: slot}
	e.seq++
	e.heap = append(e.heap, entry)
	e.siftUp(len(e.heap)-1, entry)
	return Handle{slot: slot + 1, gen: gen}
}

// allocSlot takes a slot off the free list (or grows the pool) and fills it.
// The slot's heapIdx is set by the caller once its heap position is known.
func (e *Engine) allocSlot(at float64, kind Kind, p Payload) int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.at = at
	ev.a, ev.b, ev.f, ev.flag = p.A, p.B, p.F, p.Flag
	ev.kind = kind
	return slot
}

// freeSlot returns a slot to the pool. Bumping the generation here is what
// invalidates every outstanding Handle to the old occupant.
func (e *Engine) freeSlot(slot int32) {
	ev := &e.events[slot]
	ev.heapIdx = -1
	ev.gen++
	e.free = append(e.free, slot)
}

// removeAt deletes the heap entry at position i, preserving the heap
// invariant by sifting the displaced last entry whichever way it must go.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && entryLess(last, e.heap[(i-1)/4]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// siftUp places entry at position i, shifting larger ancestors down. The
// moving entry stays in a register and is written exactly once — no Swap
// churn — with the pool's heap indices maintained along the path.
func (e *Engine) siftUp(i int, entry heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(entry, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.events[e.heap[i].slot].heapIdx = int32(i)
		i = p
	}
	e.heap[i] = entry
	e.events[entry.slot].heapIdx = int32(i)
}

// siftDown places entry at position i, promoting the smallest of up to four
// children at each level.
func (e *Engine) siftDown(i int, entry heapEntry) {
	n := len(e.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !entryLess(e.heap[m], entry) {
			break
		}
		e.heap[i] = e.heap[m]
		e.events[e.heap[i].slot].heapIdx = int32(i)
		i = m
	}
	e.heap[i] = entry
	e.events[entry.slot].heapIdx = int32(i)
}
