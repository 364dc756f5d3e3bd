package devent

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// funcs lets a test schedule a func() as a typed event: the engine's handler
// looks the payload's A up in the table.
type funcs struct {
	e     *Engine
	table []func()
}

func newFuncs(e *Engine) *funcs {
	f := &funcs{e: e}
	e.SetHandler(func(_ Kind, p Payload) { f.table[p.A]() })
	return f
}

func (f *funcs) at(t float64, fn func()) Handle {
	f.table = append(f.table, fn)
	return f.e.Schedule(t, 0, Payload{A: len(f.table) - 1})
}

func (f *funcs) after(d float64, fn func()) Handle {
	f.table = append(f.table, fn)
	return f.e.ScheduleAfter(d, 0, Payload{A: len(f.table) - 1})
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		f.at(at, func() { order = append(order, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("fired %d events, want 5", len(order))
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v, want 5", e.Now())
	}
}

func TestSimultaneousEventsFireInSchedulingOrder(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		f.at(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break broken: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var times []float64
	f.at(10, func() {
		times = append(times, e.Now())
		f.after(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v, want [10 15]", times)
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	fired := false
	ev := f.at(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Error("Cancel on a live event should report true")
	}
	if e.Live(ev) {
		t.Error("Live should be false after Cancel")
	}
	if e.Cancel(ev) {
		t.Error("second Cancel should be a no-op")
	}
	if e.Cancels() != 1 {
		t.Errorf("Cancels = %d, want 1", e.Cancels())
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelInterleaved(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var fired []string
	a := f.at(1, func() { fired = append(fired, "a") })
	f.at(2, func() { fired = append(fired, "b") })
	c := f.at(3, func() { fired = append(fired, "c") })
	_ = a
	// Cancel c from within b.
	f.at(2.5, func() { e.Cancel(c) })
	e.Run()
	want := []string{"a", "b"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	f.at(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	f.at(1, func() {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		f.at(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Errorf("fired %v, want events at 1..3", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 || e.Now() != 10 {
		t.Errorf("after second RunUntil: fired=%v now=%v", fired, e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

// Pending must report the live event count: a cancelled event leaves the
// queue immediately instead of lingering as a tombstone (the previous
// engine counted cancelled-but-unreaped events).
func TestPendingExcludesCancelled(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	h1 := f.at(1, func() {})
	f.at(2, func() {})
	f.at(3, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Cancel(h1)
	if e.Pending() != 2 {
		t.Errorf("Pending after cancel = %d, want 2 (live events only)", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending after drain = %d, want 0", e.Pending())
	}
}

// Typed events must deliver their kind and full payload through the single
// owner handler, in (time, seq) order.
func TestTypedEventsDeliverPayload(t *testing.T) {
	var e Engine
	type delivery struct {
		kind Kind
		p    Payload
	}
	var got []delivery
	e.SetHandler(func(kind Kind, p Payload) { got = append(got, delivery{kind, p}) })
	e.Schedule(2, 7, Payload{A: 1, B: 2, F: 3.5, Flag: true})
	e.Schedule(1, 9, Payload{A: -4})
	e.Run()
	want := []delivery{
		{9, Payload{A: -4}},
		{7, Payload{A: 1, B: 2, F: 3.5, Flag: true}},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("deliveries = %+v, want %+v", got, want)
	}
}

func TestScheduleWithoutHandlerPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("Schedule without SetHandler should panic")
		}
	}()
	e.Schedule(1, 0, Payload{})
}

// Preload must fire its batch exactly as if each entry had been scheduled
// individually: time order, with slice order breaking same-instant ties,
// and events pushed afterwards sequence after the batch.
func TestPreloadFiresInScheduleOrder(t *testing.T) {
	var e Engine
	var got []int
	e.SetHandler(func(_ Kind, p Payload) { got = append(got, p.A) })
	e.Preload([]Scheduled{
		{At: 3, P: Payload{A: 0}},
		{At: 1, P: Payload{A: 1}},
		{At: 1, P: Payload{A: 2}}, // same instant: must follow A=1
		{At: 2, P: Payload{A: 3}},
		{At: 0, P: Payload{A: 4}},
	})
	e.Schedule(1, 0, Payload{A: 5}) // later seq: fires after both t=1 batch entries
	e.Run()
	want := []int{4, 1, 2, 5, 3, 0}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestPreloadOnNonEmptyQueuePanics(t *testing.T) {
	var e Engine
	e.SetHandler(func(Kind, Payload) {})
	e.Schedule(1, 0, Payload{})
	defer func() {
		if recover() == nil {
			t.Error("Preload on a non-empty queue should panic")
		}
	}()
	e.Preload([]Scheduled{{At: 2}})
}

// TestStaleHandleCannotCancelRecycledSlot is the generation-counter
// regression: after an event fires (or is cancelled) its slot returns to
// the pool and may be handed to a new event. Cancelling through the old
// handle must not touch the new occupant.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	first := f.at(1, func() {})
	e.Run() // fires; slot 0 is recycled
	secondFired := false
	second := f.at(2, func() { secondFired = true })
	if second.slot != first.slot {
		t.Fatalf("test premise broken: slot not recycled (first %d, second %d)", first.slot, second.slot)
	}
	if e.Cancel(first) {
		t.Error("stale handle cancelled the slot's new occupant")
	}
	if !e.Live(second) {
		t.Error("new occupant no longer live after stale Cancel")
	}
	e.Run()
	if !secondFired {
		t.Error("new occupant never fired")
	}

	// Same via the cancellation path: a handle whose event was *cancelled*
	// (not fired) must also go stale once the slot is reused.
	third := f.at(3, func() {})
	e.Cancel(third)
	fourthFired := false
	fourth := f.at(4, func() { fourthFired = true })
	if fourth.slot != third.slot {
		t.Fatalf("test premise broken: slot not recycled (third %d, fourth %d)", third.slot, fourth.slot)
	}
	if e.Cancel(third) {
		t.Error("stale handle (cancelled origin) cancelled the new occupant")
	}
	e.Run()
	if !fourthFired {
		t.Error("new occupant never fired after stale Cancel attempt")
	}
}

func TestTimeOf(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	h := f.at(4.5, func() {})
	if at, ok := e.TimeOf(h); !ok || at != 4.5 {
		t.Errorf("TimeOf = (%v, %v), want (4.5, true)", at, ok)
	}
	e.Run()
	if _, ok := e.TimeOf(h); ok {
		t.Error("TimeOf on a fired handle should report ok=false")
	}
	if _, ok := e.TimeOf(Handle{}); ok {
		t.Error("TimeOf on the zero Handle should report ok=false")
	}
}

// Property: an arbitrary schedule of events always fires in non-decreasing
// time order and the clock never goes backwards.
func TestMonotonicClock(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rand.New(rand.NewPCG(seed, 3))
		var e Engine
		fns := newFuncs(&e)
		last := -1.0
		ok := true
		var schedule func(depth int)
		schedule = func(depth int) {
			fns.after(r.Float64()*10, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if depth > 0 && r.Float64() < 0.3 {
					schedule(depth - 1)
				}
			})
		}
		for i := 0; i < n; i++ {
			schedule(2)
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
