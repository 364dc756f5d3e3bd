package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dynalloc/internal/resources"
)

func vec(c, m, d float64) resources.Vector {
	return resources.New(c, m, d, resources.Unlimited)
}

// oracleOutcome builds a task allocated exactly its consumption, once.
func oracleOutcome(id int, peak resources.Vector, runtime float64) TaskOutcome {
	return TaskOutcome{
		TaskID:  id,
		Peak:    peak,
		Runtime: runtime,
		Attempts: []Attempt{
			{Alloc: peak, Duration: runtime, Status: Success},
		},
	}
}

func TestAttemptStatusString(t *testing.T) {
	if Success.String() != "success" || Exhausted.String() != "exhausted" || Evicted.String() != "evicted" {
		t.Error("status strings wrong")
	}
	if AttemptStatus(42).String() == "" {
		t.Error("unknown status should still stringify")
	}
}

func TestOracleIsPerfect(t *testing.T) {
	// The oracle (a = c, zero retries) has zero waste and AWE = 1
	// (Section II-C: "W is allocated optimally iff its AWE is equal to 1").
	var acc Accumulator
	acc.Add(oracleOutcome(1, vec(2, 1000, 300), 60))
	acc.Add(oracleOutcome(2, vec(1, 500, 300), 120))
	for _, k := range resources.AllocatedKinds() {
		if got := acc.AWE(k); math.Abs(got-1) > 1e-12 {
			t.Errorf("oracle AWE(%s) = %v, want 1", k, got)
		}
		if acc.Waste(k) != 0 {
			t.Errorf("oracle waste(%s) = %v, want 0", k, acc.Waste(k))
		}
	}
	if acc.Tasks() != 2 || acc.Attempts() != 2 || acc.Retries() != 0 {
		t.Errorf("counts: tasks=%d attempts=%d retries=%d", acc.Tasks(), acc.Attempts(), acc.Retries())
	}
}

func TestSingleTaskHandComputed(t *testing.T) {
	// Task consumes (1 core, 400 MB, 100 MB) for 100 s.
	// Attempt 1: alloc (1, 200, 1024), killed at 50 s (memory exhausted).
	// Attempt 2: alloc (1, 800, 1024), succeeds, runs 100 s.
	o := TaskOutcome{
		TaskID:  7,
		Peak:    vec(1, 400, 100),
		Runtime: 100,
		Attempts: []Attempt{
			{Alloc: vec(1, 200, 1024), Duration: 50, Status: Exhausted},
			{Alloc: vec(1, 800, 1024), Duration: 100, Status: Success},
		},
	}
	if got := o.Consumption(resources.Memory); got != 40000 {
		t.Errorf("Consumption = %v, want 40000", got)
	}
	// Internal fragmentation: 100 * (800 - 400) = 40000.
	if got := o.InternalFragmentation(resources.Memory); got != 40000 {
		t.Errorf("IF = %v, want 40000", got)
	}
	// Failed allocation: 200 * 50 = 10000.
	if got := o.FailedAllocation(resources.Memory); got != 10000 {
		t.Errorf("FA = %v, want 10000", got)
	}
	if got := o.Waste(resources.Memory); got != 50000 {
		t.Errorf("Waste = %v, want 50000", got)
	}
	// Allocation: 800*100 + 200*50 = 90000. AWE = 40000/90000.
	if got := o.Allocation(resources.Memory); got != 90000 {
		t.Errorf("Allocation = %v, want 90000", got)
	}
	var acc Accumulator
	acc.Add(o)
	if got := acc.AWE(resources.Memory); math.Abs(got-4.0/9.0) > 1e-12 {
		t.Errorf("AWE = %v, want 4/9", got)
	}
	if acc.Retries() != 1 {
		t.Errorf("Retries = %d, want 1", acc.Retries())
	}
	if o.Retries() != 1 {
		t.Errorf("outcome retries = %d", o.Retries())
	}
}

func TestWasteIdentity(t *testing.T) {
	// Identity: Allocation - Consumption == Waste for every kind, always.
	f := func(seed uint64, attemptsRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 31))
		nFail := int(attemptsRaw % 5)
		peak := vec(r.Float64()*4+0.1, r.Float64()*4000+10, r.Float64()*2000+10)
		runtime := r.Float64()*500 + 1
		o := TaskOutcome{TaskID: 1, Peak: peak, Runtime: runtime}
		alloc := peak
		for i := 0; i < nFail; i++ {
			under := alloc.Scale(0.3 + r.Float64()*0.5)
			o.Attempts = append(o.Attempts, Attempt{
				Alloc: under, Duration: r.Float64() * runtime, Status: Exhausted,
			})
		}
		final := peak.Scale(1 + r.Float64())
		o.Attempts = append(o.Attempts, Attempt{Alloc: final, Duration: runtime, Status: Success})
		for _, k := range resources.AllocatedKinds() {
			lhs := o.Allocation(k) - o.Consumption(k)
			if math.Abs(lhs-o.Waste(k)) > 1e-6*(1+math.Abs(lhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFinalAllocOfFailedTask(t *testing.T) {
	o := TaskOutcome{
		Peak:    vec(1, 100, 100),
		Runtime: 10,
		Attempts: []Attempt{
			{Alloc: vec(1, 50, 100), Duration: 5, Status: Exhausted},
		},
	}
	if !o.FinalAlloc().IsZero() {
		t.Error("task with no success should have zero final alloc")
	}
	if o.InternalFragmentation(resources.Memory) != 0 {
		t.Error("no IF without a successful attempt")
	}
}

func TestEvictionsExcludedByDefault(t *testing.T) {
	o := TaskOutcome{
		TaskID:  1,
		Peak:    vec(1, 100, 100),
		Runtime: 10,
		Attempts: []Attempt{
			{Alloc: vec(1, 100, 100), Duration: 6, Status: Evicted},
			{Alloc: vec(1, 100, 100), Duration: 10, Status: Success},
		},
	}
	var acc Accumulator
	acc.Add(o)
	if got := acc.AWE(resources.Memory); math.Abs(got-1) > 1e-12 {
		t.Errorf("AWE with excluded eviction = %v, want 1", got)
	}
	if acc.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", acc.Evictions())
	}
	if got := o.EvictedTime(); got != 6 {
		t.Errorf("EvictedTime = %v, want 6", got)
	}
}

func TestStagingTimeChargedToFragmentation(t *testing.T) {
	// A task whose successful attempt held its allocation for 110 s (10 s
	// staging + 100 s run) is charged the extra 10 allocation-seconds as
	// internal fragmentation.
	o := TaskOutcome{
		TaskID:  1,
		Peak:    vec(1, 400, 100),
		Runtime: 100,
		Attempts: []Attempt{
			{Alloc: vec(1, 400, 100), Duration: 110, Status: Success},
		},
	}
	// IF = 400*110 - 400*100 = 4000.
	if got := o.InternalFragmentation(resources.Memory); got != 4000 {
		t.Errorf("IF = %v, want 4000", got)
	}
	if got := o.Allocation(resources.Memory); got != 44000 {
		t.Errorf("Allocation = %v, want 44000", got)
	}
	var acc Accumulator
	acc.Add(o)
	if awe := acc.AWE(resources.Memory); math.Abs(awe-100.0/110.0) > 1e-12 {
		t.Errorf("AWE = %v, want 100/110", awe)
	}
}

func TestAWEZeroAllocation(t *testing.T) {
	var acc Accumulator
	if acc.AWE(resources.Memory) != 0 {
		t.Error("empty accumulator AWE should be 0")
	}
}

func TestAWEInUnitIntervalForOverAllocations(t *testing.T) {
	// Whenever every attempt allocates at least the task's needs at failure
	// time, AWE stays within (0, 1].
	f := func(seed uint64, n uint8) bool {
		r := rand.New(rand.NewPCG(seed, 33))
		var acc Accumulator
		for i := 0; i < int(n%20)+1; i++ {
			peak := vec(r.Float64()*4+0.1, r.Float64()*4000+10, r.Float64()*2000+10)
			runtime := r.Float64()*100 + 1
			o := TaskOutcome{TaskID: i, Peak: peak, Runtime: runtime}
			o.Attempts = append(o.Attempts, Attempt{
				Alloc: peak.Scale(1 + r.Float64()), Duration: runtime, Status: Success,
			})
			acc.Add(o)
		}
		for _, k := range resources.AllocatedKinds() {
			awe := acc.AWE(k)
			if awe <= 0 || awe > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	var acc Accumulator
	acc.Add(oracleOutcome(1, vec(1, 100, 200), 50))
	s := acc.Summarize()
	if s.Tasks != 1 || len(s.PerKind) != 3 {
		t.Fatalf("summary = %+v", s)
	}
	for _, ks := range s.PerKind {
		if math.Abs(ks.AWE-1) > 1e-12 {
			t.Errorf("summary AWE(%s) = %v, want 1", ks.Kind, ks.AWE)
		}
		if ks.Allocation != ks.Consumption {
			t.Errorf("summary alloc != consumption for oracle")
		}
	}
}

func TestFailedStatusAccounting(t *testing.T) {
	if Failed.String() != "failed" {
		t.Error("failed status string wrong")
	}
	// A task abandoned at the retry limit: two exhaustions, then the
	// terminal failed marker. It holds allocation (waste) but never
	// contributes consumption.
	doomed := TaskOutcome{
		TaskID:  1,
		Peak:    vec(1, 500, 100),
		Runtime: 10,
		Attempts: []Attempt{
			{Alloc: vec(1, 100, 100), Duration: 2, Status: Exhausted},
			{Alloc: vec(1, 100, 100), Duration: 2, Status: Exhausted},
			{Alloc: vec(1, 100, 100), Status: Failed},
		},
	}
	if doomed.Succeeded() {
		t.Error("doomed task reports success")
	}
	var acc Accumulator
	acc.Add(doomed)
	acc.Add(oracleOutcome(2, vec(1, 100, 100), 10))
	if acc.Failures() != 1 {
		t.Errorf("failures = %d, want 1", acc.Failures())
	}
	if acc.Retries() != 2 {
		t.Errorf("retries = %d, want 2", acc.Retries())
	}
	s := acc.Summarize()
	if s.Failures != 1 {
		t.Errorf("summary failures = %d, want 1", s.Failures)
	}
	// Consumption comes only from the successful task; the doomed one adds
	// pure waste: memory AWE = (100*10) / (100*10 + 2*2*100).
	want := 1000.0 / 1400.0
	if got := acc.AWE(resources.Memory); math.Abs(got-want) > 1e-12 {
		t.Errorf("memory AWE = %v, want %v", got, want)
	}
	// The Failed marker itself holds no allocation time.
	if got := doomed.FailedAllocation(resources.Memory); got != 400 {
		t.Errorf("failed allocation = %v, want 400 (exhausted attempts only)", got)
	}
}
