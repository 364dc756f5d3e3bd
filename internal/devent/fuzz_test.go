package devent

import (
	"testing"
)

// oracleEvent mirrors one scheduled event in the reference model: a flat
// list re-scanned (and re-sorted conceptually) on every fire, the simplest
// possible implementation of (time, seq) ordering.
type oracleEvent struct {
	at        float64
	seq       int
	id        int
	cancelled bool
	fired     bool
}

// oracleNext returns the index of the earliest live event by (time, seq),
// or -1 when none remain.
func oracleNext(events []oracleEvent) int {
	best := -1
	for i := range events {
		ev := &events[i]
		if ev.cancelled || ev.fired {
			continue
		}
		if best == -1 || ev.at < events[best].at ||
			(ev.at == events[best].at && ev.seq < events[best].seq) {
			best = i
		}
	}
	return best
}

// FuzzEngineMatchesOracle drives random schedule/cancel/fire sequences
// through the 4-ary indexed heap and checks every observable — firing
// order (including same-instant ties), Cancel results, Pending counts —
// against the brute-force sort-by-(time,seq) oracle. Both the absolute and
// the relative scheduling entry point are exercised.
func FuzzEngineMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 2, 1, 3, 3, 3})
	f.Add([]byte{1, 5, 1, 5, 1, 5, 3, 2, 0, 3})          // heavy same-instant ties
	f.Add([]byte{0, 9, 2, 0, 0, 9, 2, 0, 0, 9, 2, 0, 3}) // cancel-then-reuse churn
	f.Add([]byte{3, 3, 2, 7, 0, 0, 3})                   // fire/cancel on empty state

	f.Fuzz(func(t *testing.T, data []byte) {
		var e Engine
		var fired []int
		e.SetHandler(func(_ Kind, p Payload) { fired = append(fired, p.A) })

		var oracle []oracleEvent
		var oracleFired []int
		var handles []Handle
		nextID := 0

		// First byte: size of an up-front Preload batch (possibly 0), with
		// times taken from the following bytes — usually unsorted, so both
		// the heapify and the sorted fast path get fuzzed.
		if len(data) > 0 {
			k := int(data[0]) % 9
			data = data[1:]
			var batch []Scheduled
			for i := 0; i < k && i < len(data); i++ {
				at := float64(data[i]%8) * 0.5
				batch = append(batch, Scheduled{Kind: Kind(i % 3), At: at, P: Payload{A: nextID}})
				oracle = append(oracle, oracleEvent{at: at, seq: len(oracle), id: nextID})
				nextID++
			}
			if len(batch) > 0 {
				data = data[len(batch):]
				e.Preload(batch)
				// Preload hands out no handles; pad so handle indices keep
				// matching oracle indices for the cancel op.
				handles = make([]Handle, len(batch))
			}
		}

		fireOne := func() {
			i := oracleNext(oracle)
			stepped := e.Step()
			if (i >= 0) != stepped {
				t.Fatalf("Step = %v with %d live oracle events", stepped, e.Pending())
			}
			if i >= 0 {
				oracle[i].fired = true
				oracleFired = append(oracleFired, oracle[i].id)
			}
		}

		for pos := 0; pos < len(data); pos++ {
			op := data[pos] % 4
			switch op {
			case 0, 1: // schedule (absolute on op 0, relative on op 1)
				pos++
				if pos >= len(data) {
					break
				}
				// Quantized deltas make same-instant ties common; delta 0
				// schedules at the current instant.
				delta := float64(data[pos]%8) * 0.5
				at := e.Now() + delta
				id := nextID
				nextID++
				var h Handle
				if op == 0 {
					h = e.Schedule(at, Kind(id%3), Payload{A: id})
				} else {
					h = e.ScheduleAfter(delta, Kind(id%3), Payload{A: id})
				}
				handles = append(handles, h)
				oracle = append(oracle, oracleEvent{at: at, seq: len(oracle), id: id})
			case 2: // cancel a previously issued handle (live, fired, or stale)
				pos++
				if pos >= len(data) || len(handles) == 0 {
					break
				}
				j := int(data[pos]) % len(handles)
				// Preload hands out no handles (zero Handle padding), and a
				// zero Handle is always inert.
				want := handles[j] != (Handle{}) && !oracle[j].cancelled && !oracle[j].fired
				if got := e.Cancel(handles[j]); got != want {
					t.Fatalf("Cancel(handle %d) = %v, oracle wants %v", j, got, want)
				}
				if want {
					oracle[j].cancelled = true
				}
			case 3: // fire the next event
				fireOne()
			}
			if live := len(oracle) - countDead(oracle); e.Pending() != live {
				t.Fatalf("Pending = %d, oracle has %d live events", e.Pending(), live)
			}
		}
		// Drain both worlds and compare the complete firing sequence.
		for oracleNext(oracle) >= 0 || e.Pending() > 0 {
			fireOne()
		}
		if len(fired) != len(oracleFired) {
			t.Fatalf("engine fired %d events, oracle %d", len(fired), len(oracleFired))
		}
		for i := range fired {
			if fired[i] != oracleFired[i] {
				t.Fatalf("firing order diverged at %d: engine %v, oracle %v", i, fired, oracleFired)
			}
		}
	})
}

func countDead(events []oracleEvent) int {
	n := 0
	for i := range events {
		if events[i].cancelled || events[i].fired {
			n++
		}
	}
	return n
}
