package sched

// Queue is the ready queue: a growable ring buffer of tasks with O(1)
// push at either end. The eviction and retry paths push blocks onto the front
// (retries jump the queue), which on a plain slice cost a full copy per
// requeued task; Dispatch compacts the part it scanned in place through
// At/Set and closes the gap to the unscanned rest with Cut, instead of
// rebuilding a `remaining` slice per scan, so the steady-state hot path
// allocates nothing.
//
// The zero value is an empty queue ready for use.
type Queue struct {
	buf  []*Task // ring storage; len(buf) is a power of two (or zero)
	head int     // index of element 0 within buf
	n    int     // number of live elements
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return q.n }

// At returns the i-th queued task (0 = front). i must be in [0, Len()).
func (q *Queue) At(i int) *Task { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Set overwrites the i-th queued task. i must be in [0, Len()).
func (q *Queue) Set(i int, v *Task) { q.buf[(q.head+i)&(len(q.buf)-1)] = v }

// PushBack appends v to the back of the queue.
func (q *Queue) PushBack(v *Task) {
	q.grow(1)
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront prepends v to the front of the queue.
func (q *Queue) PushFront(v *Task) {
	q.grow(1)
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// PushFrontAll prepends vs as a block: after the call the queue reads
// vs[0], vs[1], ..., then the previous contents. This is the multi-victim
// eviction requeue — the whole block jumps the queue while its internal
// (ascending key) order is preserved.
func (q *Queue) PushFrontAll(vs []*Task) {
	q.grow(len(vs))
	for i := len(vs) - 1; i >= 0; i-- {
		q.head = (q.head - 1) & (len(q.buf) - 1)
		q.buf[q.head] = vs[i]
		q.n++
	}
}

// Cut removes the elements in [from, to), keeping the order of the rest, by
// moving whichever side of the gap is shorter: the front forward or the back
// down. It requires 0 <= from <= to <= Len().
func (q *Queue) Cut(from, to int) {
	if from < 0 || from > to || to > q.n {
		panic("sched: Cut out of range")
	}
	gap := to - from
	if from < q.n-to {
		for i := from - 1; i >= 0; i-- {
			q.Set(i+gap, q.At(i))
		}
		q.head = (q.head + gap) & (len(q.buf) - 1)
	} else {
		for i := to; i < q.n; i++ {
			q.Set(i-gap, q.At(i))
		}
	}
	q.n -= gap
}

// grow ensures capacity for k more elements, doubling the ring (and
// re-linearizing it) as needed.
func (q *Queue) grow(k int) {
	need := q.n + k
	if need <= len(q.buf) {
		return
	}
	size := len(q.buf)
	if size == 0 {
		size = 16
	}
	for size < need {
		size *= 2
	}
	buf := make([]*Task, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.At(i)
	}
	q.buf = buf
	q.head = 0
}
