package devent

import "testing"

// The event-engine micro-benchmarks isolate the three costs the simulator
// pays per event: steady-state schedule/fire churn through the 4-ary heap,
// cancellation via the maintained heap index, and the O(n) heapify
// bulk-load of an up-front schedule. The typed paths must stay at 0
// allocs/op, which TestTypedPathsAllocateNothing holds them to.

// lcg is a tiny deterministic generator so benchmark schedules are varied
// but reproducible without math/rand in the timed loop.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>40) / float64(1<<24)
}

// loadedEngine returns an engine holding a 1024-event future list drawn
// from seed, and the generator positioned after it.
func loadedEngine(seed lcg) (*Engine, *lcg) {
	e := new(Engine)
	e.SetHandler(func(Kind, Payload) {})
	r := &seed
	for i := 0; i < 1024; i++ {
		e.ScheduleAfter(r.next()*100, 0, Payload{A: i})
	}
	return e, r
}

// scheduleFireStep schedules one typed event at a pseudo-random offset and
// fires the earliest — the simulator's steady-state pattern.
func scheduleFireStep(e *Engine, r *lcg, i int) {
	e.ScheduleAfter(r.next()*100, 0, Payload{A: i})
	e.Step()
}

// cancelStep mirrors an eviction-heavy run: it schedules two events,
// cancels one through its handle (an indexed heap removal), and fires the
// other.
func cancelStep(e *Engine, r *lcg, i int) {
	h := e.ScheduleAfter(r.next()*100, 0, Payload{A: i})
	e.ScheduleAfter(r.next()*100, 0, Payload{A: i})
	e.Cancel(h)
	e.Step()
}

// BenchmarkDeventScheduleFireChurn is scheduleFireStep on a 1024-event
// future list.
func BenchmarkDeventScheduleFireChurn(b *testing.B) {
	e, r := loadedEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheduleFireStep(e, r, i)
	}
}

// BenchmarkDeventCancelHeavy is cancelStep on a 1024-event future list.
func BenchmarkDeventCancelHeavy(b *testing.B) {
	e, r := loadedEngine(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cancelStep(e, r, i)
	}
}

// TestTypedPathsAllocateNothing pins what the two benchmarks above measure:
// once the pool has grown to the list's size, neither step allocates.
func TestTypedPathsAllocateNothing(t *testing.T) {
	for name, step := range map[string]func(*Engine, *lcg, int){
		"schedule/fire": scheduleFireStep,
		"cancel":        cancelStep,
	} {
		e, r := loadedEngine(1)
		i := 0
		if n := testing.AllocsPerRun(1000, func() { step(e, r, i); i++ }); n != 0 {
			t.Errorf("%s: a step allocates %v times, want 0", name, n)
		}
	}
}

// BenchmarkDeventBulkLoad builds the future-event list for a 4096-entry
// arrival-style schedule, comparing the O(n) Preload heapify against n
// individual pushes. Only the load phase is timed; the untimed drain
// resets the engine between iterations, so the steady state measures pure
// heap construction on a reused pool.
func BenchmarkDeventBulkLoad(b *testing.B) {
	const n = 4096
	items := make([]Scheduled, n)
	r := lcg(3)
	at := 0.0
	for i := range items {
		// Arrival schedules are sorted by time (the Model contract), so the
		// bulk-load input is ascending with random gaps.
		at += r.next()
		items[i] = Scheduled{At: at, P: Payload{A: i}}
	}
	// Draining advances the clock, so each iteration rebases the schedule
	// onto the current instant (both variants pay the same addition).
	b.Run("preload", func(b *testing.B) {
		var e Engine
		e.SetHandler(func(Kind, Payload) {})
		scratch := make([]Scheduled, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := e.Now()
			for j, it := range items {
				it.At += base
				scratch[j] = it
			}
			b.StartTimer()
			e.Preload(scratch)
			b.StopTimer()
			e.Run()
			b.StartTimer()
		}
	})
	b.Run("push-loop", func(b *testing.B) {
		var e Engine
		e.SetHandler(func(Kind, Payload) {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base := e.Now()
			for _, it := range items {
				e.Schedule(base+it.At, it.Kind, it.P)
			}
			b.StopTimer()
			e.Run()
			b.StartTimer()
		}
	})
}
