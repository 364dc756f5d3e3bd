package sim

// taskStore is the simulator's window of per-task state: a growable ring of
// simTask entries addressed by absolute task index. Tasks enter at the back
// as the workload source generates them and leave at the front as soon as
// they (and every lower-indexed task) complete and their outcome is
// emitted, so the store holds only the in-flight window — the structure
// that makes peak memory independent of total task count on streaming
// runs. Entries never move (sched.Task's contract) and each slot's entry is
// reused by its next occupant. A slot gets its entry on first use, from
// blocks of at most entryBlock entries, so the entries allocated track the
// slots the window reaches rather than the ring's power-of-two size. The
// zero value is an empty store ready for use.
type taskStore struct {
	buf      []*simTask // ring of entries; len(buf) is a power of two (or zero); nil until a slot's first use
	spare    []simTask  // allocated entries not yet given to a slot
	assigned int        // slots of buf holding an entry
	base     int        // absolute task index of the logical front
	head     int        // position of the front within buf
	n        int        // live entries: task indices [base, base+n)
	peak     int        // high-water mark of n (the realized window size)
}

// entryBlock caps how many entries one allocation hands out.
const entryBlock = 1024

// len returns the number of live entries.
func (ts *taskStore) len() int { return ts.n }

// lo returns the lowest live task index (the front).
func (ts *taskStore) lo() int { return ts.base }

// hi returns one past the highest live task index.
func (ts *taskStore) hi() int { return ts.base + ts.n }

// get returns the entry for absolute task index idx, which must be live
// (in [lo(), hi())). The entry stays at its address until it is popped.
func (ts *taskStore) get(idx int) *simTask {
	return ts.buf[(ts.head+(idx-ts.base))&(len(ts.buf)-1)]
}

// front returns the entry at the logical front. The store must not be
// empty.
func (ts *taskStore) front() *simTask {
	return ts.buf[ts.head]
}

// pushBack extends the window by one entry (absolute index hi()) and
// returns it. The entry may hold the leftovers of a previous occupant —
// callers overwrite every field, optionally recycling the old Attempts
// capacity.
func (ts *taskStore) pushBack() *simTask {
	ts.grow(1)
	slot := &ts.buf[(ts.head+ts.n)&(len(ts.buf)-1)]
	if *slot == nil {
		if len(ts.spare) == 0 {
			ts.spare = make([]simTask, min(entryBlock, len(ts.buf)-ts.assigned))
		}
		*slot = &ts.spare[0]
		ts.spare = ts.spare[1:]
		ts.assigned++
	}
	ts.n++
	if ts.n > ts.peak {
		ts.peak = ts.n
	}
	return *slot
}

// popFront releases the front entry, advancing the window. The store must
// not be empty.
func (ts *taskStore) popFront() {
	if ts.n == 0 {
		panic("sim: popFront on empty taskStore")
	}
	ts.head = (ts.head + 1) & (len(ts.buf) - 1)
	ts.base++
	ts.n--
}

// grow ensures capacity for k more entries, doubling and re-linearizing
// the ring as needed. Entries keep their addresses; the new slots are empty
// until their first use.
func (ts *taskStore) grow(k int) {
	need := ts.n + k
	if need <= len(ts.buf) {
		return
	}
	size := len(ts.buf)
	if size == 0 {
		size = 16
	}
	for size < need {
		size *= 2
	}
	buf := make([]*simTask, size)
	for i := range ts.buf {
		buf[i] = ts.buf[(ts.head+i)&(len(ts.buf)-1)]
	}
	ts.buf = buf
	ts.head = 0
}
