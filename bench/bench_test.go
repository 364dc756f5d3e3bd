package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},   // p90 leaves 9 beyond
		{100, 90, true},  // p90 leaves exactly 10
		{999, 90, true},  // p99 would leave 9
		{1000, 99, true}, // p99 leaves exactly 10
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25] and
// statistics.quantiles([10, 12, 11, 30], n=4) is [10.25, 11.5, 25.5].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	want := (25.5 - 10.25) / 11.5
	if got := quartileSpread([]float64{10, 12, 11, 30}); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	children := []span{
		{StartNS: 20, EndNS: 50},  // overlaps the next
		{StartNS: 10, EndNS: 30},  // out of order
		{StartNS: 90, EndNS: 120}, // sticks out of the parent
		{StartNS: 60, EndNS: 60},  // empty
	}
	// Covered: [10,50) and [90,100) = 50.
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{StartNS: -5, EndNS: 200}}); got != 0 {
		t.Errorf("selfTime under a covering child = %d, want 0", got)
	}
}

func TestSampledTimerScaling(t *testing.T) {
	const calls = 64000
	timer := sampledTimer{every: 4}
	for i := 0; i < calls; i++ {
		if _, ok := timer.begin(); ok {
			// Stand in for end(): every timed call took exactly 1 ms.
			timer.samples = append(timer.samples, 1e-3)
		}
	}
	// The hash picks one call in four for timing and one in four for an
	// empty calibration interval, within sampling error.
	for name, n := range map[string]int{"timed calls": len(timer.samples), "empty intervals": len(timer.nulls)} {
		if n < calls/4*9/10 || n > calls/4*11/10 {
			t.Errorf("%d %s of %d calls at every=4, want about %d", n, name, calls, calls/4)
		}
	}
	timer.nulls = nil // real clock readings; calibration is checked below
	if got := timer.count(); got != calls {
		t.Errorf("count = %g, want %d", got, calls)
	}
	// However many calls were timed, the scaled total is mean × calls.
	if got := timer.busy(); math.Abs(got-64) > 1e-9 {
		t.Errorf("busy = %g s, want 64 (1 ms × 64000 calls)", got)
	}
	if got := timer.percentileUS(50); math.Abs(got-1000) > 1e-9 {
		t.Errorf("p50 = %g us, want 1000", got)
	}
	// The in-place calibration: every timed call carries the clock's own
	// cost, here 0.25 ms, which busy and the percentiles subtract.
	timer.nulls = []float64{0.25e-3, 0.25e-3, 0.25e-3}
	if got := timer.busy(); math.Abs(got-48) > 1e-9 {
		t.Errorf("calibrated busy = %g s, want 48", got)
	}
	if got := timer.percentileUS(50); math.Abs(got-750) > 1e-9 {
		t.Errorf("calibrated p50 = %g us, want 750", got)
	}

	var all sampledTimer // every call timed
	all.add(2 * time.Millisecond)
	all.add(4 * time.Millisecond)
	if got := all.busy(); math.Abs(got-6e-3) > 1e-12 {
		t.Errorf("busy with every call timed = %g, want 0.006", got)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{"tasks_per_s", "1/s", "higher", 0.10, 0}
	lower := metricDef{"task_latency_p50_ms", "ms", "lower", 0.15, 0}
	awe := metricDef{"awe_memory", "ratio", "higher", 0.05, 0.01}
	mv := func(v, spread float64) metricValue { return metricValue{Value: v, Spread: spread, N: 8} }
	cases := []struct {
		name  string
		def   metricDef
		a, b  metricValue
		exact bool
		want  string
	}{
		{"within bound", higher, mv(1000, 0.02), mv(950, 0.02), false, "ok"},
		{"improved", higher, mv(1000, 0.02), mv(1500, 0.02), false, "ok"},
		{"throughput down 20%", higher, mv(1000, 0.02), mv(800, 0.02), false, "regressed"},
		{"latency up 20%", lower, mv(10, 0.01), mv(12, 0.01), false, "regressed"},
		{"latency down", lower, mv(10, 0.01), mv(5, 0.01), false, "ok"},
		{"baseline too noisy", higher, mv(1000, 0.30), mv(800, 0.02), false, "unresolved"},
		{"candidate too noisy", lower, mv(10, 0.01), mv(10, 0.40), false, "unresolved"},
		{"absolute: 0.005 lower", awe, mv(0.5, 0), mv(0.495, 0), false, "ok"},
		{"absolute: 0.02 lower (4%, inside the share bound)", awe, mv(0.5, 0), mv(0.48, 0), false, "regressed"},
		{"absolute: higher", awe, mv(0.5, 0), mv(0.6, 0), false, "ok"},
		{"exact: any worsening", awe, mv(0.5, 0), mv(0.4999, 0), true, "regressed"},
		{"exact: any improvement", awe, mv(0.5, 0), mv(0.5001, 0), true, "regressed"},
		{"exact: identical", awe, mv(0.5, 0), mv(0.5, 0), true, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.def, c.a, c.b, c.exact); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareMode(t *testing.T) {
	// mk builds a report of one deterministic workload; edit changes it.
	mk := func(edit func(*report)) *report {
		run := &runReport{Correct: true, Rounds: 8, Attempted: 100, Metrics: map[string]metricValue{},
			Exact: map[string]float64{"sim.evictions": 12}}
		for _, d := range endToEnd {
			run.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit, Spread: 0.01, N: 8}
		}
		r := &report{Workloads: []workloadReport{{Name: "sim-maxseen-churn", Deterministic: true, Untraced: run}}}
		if edit != nil {
			edit(r)
		}
		return r
	}
	setMetric := func(name string, v float64) func(*report) {
		return func(r *report) {
			mv := r.Workloads[0].Untraced.Metrics[name]
			mv.Value = v
			r.Workloads[0].Untraced.Metrics[name] = mv
		}
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		p := filepath.Join(dir, name)
		if err := writeReport(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(nil))
	cases := []struct {
		name      string
		candidate *report
		fails     bool
	}{
		{"equal", mk(nil), false},
		{"1% slower", mk(setMetric("tasks_per_s", 0.99)), false},
		{"30% slower", mk(setMetric("tasks_per_s", 0.7)), true},
		{"exact AWE moved up", mk(setMetric("awe_cores", 1.0000001)), true},
		{"exact AWE on another seed", mk(func(r *report) { r.Provenance.Seed = 9; setMetric("awe_cores", 0.995)(r) }), false},
		{"exact count moved", mk(func(r *report) { r.Workloads[0].Untraced.Exact["sim.evictions"] = 11 }), true},
		{"metric missing", mk(func(r *report) { delete(r.Workloads[0].Untraced.Metrics, "task_latency_p50_ms") }), true},
		{"workload missing", mk(func(r *report) { r.Workloads = nil }), true},
		{"only a traced run", mk(func(r *report) { r.Workloads[0].Untraced = nil }), true},
		{"more failures", mk(func(r *report) { r.Workloads[0].Untraced.Failed = 1 }), true},
	}
	for _, c := range cases {
		err := compareMode([]string{base, write("candidate.json", c.candidate)})
		if c.fails && err == nil {
			t.Errorf("%s: want an error, got nil", c.name)
		}
		if !c.fails && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if err := compareMode([]string{base}); err == nil {
		t.Error("compare with one file: want an error, got nil")
	}
	empty := write("empty.json", mk(func(r *report) { r.Workloads = nil }))
	if err := compareMode([]string{empty, base}); err == nil {
		t.Error("compare against a baseline without runs: want an error, got nil")
	}
}

// TestSmokeAllWorkloads runs every workload at its smoke size, untraced and
// traced, through the same code path as a real run, output checks included.
func TestSmokeAllWorkloads(t *testing.T) {
	reported := map[string]bool{}
	defer func() {
		for _, d := range perLayer {
			if !reported[d.name] {
				t.Errorf("per-layer metric %s is reported by no workload", d.name)
			}
		}
	}()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain, err := runWorkload(w, w.short, 7, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 {
				t.Fatalf("untraced: output checks failed: %v", plain.Violations)
			}
			for _, d := range endToEnd {
				if v, ok := plain.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("untraced: %s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}
			traced, err := runWorkload(w, w.short, 7, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced: output checks failed: %v", traced.Violations)
			}
			for name, v := range traced.Metrics {
				reported[name] = true
				// A layer of another system is left out, not reported as 0.
				if layer, _, _ := strings.Cut(name, "."); (layer == "wq" || layer == "serve" || layer == "sim") && layer != w.short.System && !(layer == "serve" && w.short.System == "allocd") {
					t.Errorf("traced: %s = %g reported by a %s workload", name, v.Value, w.short.System)
				}
			}
			m := func(name string) float64 { return traced.Metrics[name].Value }
			if m("allocator.allocate_calls") <= 0 || m("bench.trace_overhead_ratio") <= 0 || m("bench.spans") <= 0 {
				t.Errorf("traced: allocate_calls=%g trace_overhead_ratio=%g spans=%g, want all positive",
					m("allocator.allocate_calls"), m("bench.trace_overhead_ratio"), m("bench.spans"))
			}
			// Each workload bypasses the layers it is meant to bypass.
			if w.short.Algorithm == "max-seen" && m("core.recomputes") != 0 {
				t.Errorf("max-seen workload recomputed buckets %g times", m("core.recomputes"))
			}
			if w.short.Algorithm != "max-seen" && m("core.recomputes") <= 0 {
				t.Errorf("bucketing workload never recomputed")
			}
			if w.name == "wq-maxseen-shallow" && m("wq.peak_queue") >= 16 {
				t.Errorf("shallow workload queued %g tasks", m("wq.peak_queue"))
			}
			if err := traced.sink.writeJSONL(t.TempDir(), w.name); err != nil {
				t.Errorf("writing the trace: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps the contract file at the repository root in
// step with the tables this program runs from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program has %q / %q", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := c.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %+v", i, e, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if c.PerLayer[i].Name != d.name || c.PerLayer[i].Unit != d.unit || c.PerLayer[i].Better != d.better() {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %+v", i, c.PerLayer[i], d)
		}
	}
}
