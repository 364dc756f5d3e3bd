package sim

import "testing"

func TestTaskStoreWindowSemantics(t *testing.T) {
	var ts taskStore
	if ts.len() != 0 || ts.lo() != 0 || ts.hi() != 0 {
		t.Fatalf("zero store not empty: len=%d lo=%d hi=%d", ts.len(), ts.lo(), ts.hi())
	}
	// Slide a window of at most 5 over 1000 task indices, forcing many ring
	// wraps, and verify every live entry stays addressable by its absolute
	// index.
	next := 0
	for next < 1000 || ts.len() > 0 {
		for ts.len() < 5 && next < 1000 {
			e := ts.pushBack()
			e.ID = next + 1
			next++
		}
		for i := ts.lo(); i < ts.hi(); i++ {
			if got := ts.get(i).ID; got != i+1 {
				t.Fatalf("get(%d).ID = %d, want %d", i, got, i+1)
			}
		}
		if ts.front() != ts.get(ts.lo()) {
			t.Fatal("front() disagrees with get(lo())")
		}
		drop := 1 + next%3
		for d := 0; d < drop && ts.len() > 0; d++ {
			ts.popFront()
		}
	}
	if ts.lo() != 1000 || ts.hi() != 1000 {
		t.Errorf("final window = [%d, %d), want [1000, 1000)", ts.lo(), ts.hi())
	}
	if ts.peak > 8 {
		t.Errorf("peak window = %d for a 5-wide sliding window", ts.peak)
	}
	if len(ts.buf) > 16 {
		t.Errorf("ring grew to %d entries for a 5-wide window", len(ts.buf))
	}
}

// TestTaskStoreGrowPreservesOrder grows the ring across its wrap point and
// checks that every live entry keeps both its index and its address through
// each doubling — the scheduler core holds them by address — and that a
// popped slot's entry is reused by the slot's next occupant.
func TestTaskStoreGrowPreservesOrder(t *testing.T) {
	var ts taskStore
	// Interleave pushes and pops so the ring wraps before growing.
	for i := 0; i < 12; i++ {
		ts.pushBack().ID = i + 1
	}
	for i := 0; i < 10; i++ {
		ts.popFront()
	}
	addrs := map[int]*simTask{}
	for i := ts.lo(); i < ts.hi(); i++ {
		addrs[i] = ts.get(i)
	}
	doublings := 0
	for i := 12; i < 200; i++ { // forces several doublings across the wrap
		size := len(ts.buf)
		e := ts.pushBack()
		e.ID = i + 1
		addrs[i] = e
		if len(ts.buf) == size {
			continue
		}
		doublings++
		for j := ts.lo(); j < ts.hi(); j++ {
			if ts.get(j) != addrs[j] {
				t.Fatalf("doubling to %d slots moved the entry of task %d", len(ts.buf), j)
			}
		}
	}
	if doublings < 3 {
		t.Fatalf("%d doublings, want at least 3", doublings)
	}
	for i := ts.lo(); i < ts.hi(); i++ {
		if got := ts.get(i).ID; got != i+1 {
			t.Fatalf("after grow: get(%d).ID = %d, want %d", i, got, i+1)
		}
	}
	if ts.lo() != 10 || ts.hi() != 200 {
		t.Errorf("window = [%d, %d), want [10, 200)", ts.lo(), ts.hi())
	}
	front := ts.front()
	ts.popFront()
	for ts.hi() < ts.lo()+len(ts.buf) { // fill every slot: the last takes the popped one
		ts.pushBack()
	}
	if last := ts.get(ts.hi() - 1); last != front {
		t.Error("the popped slot's entry was not reused by its next occupant")
	}
}

func TestTaskStorePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("popFront on empty store did not panic")
		}
	}()
	var ts taskStore
	ts.popFront()
}

// TestTaskStoreAllocatesReachedSlots pins that entries are allocated for
// the slots the window reaches, in blocks of at most entryBlock, not for
// every slot of the power-of-two ring.
func TestTaskStoreAllocatesReachedSlots(t *testing.T) {
	var ts taskStore
	for i := 0; i < 3000; i++ {
		ts.pushBack().ID = i + 1
	}
	allocated := ts.assigned + len(ts.spare)
	if ts.assigned != 3000 || allocated-ts.assigned >= entryBlock || allocated >= len(ts.buf) {
		t.Errorf("a 3000-task window in a %d-slot ring gave %d slots entries and allocated %d",
			len(ts.buf), ts.assigned, allocated)
	}
}
