package allocator

import (
	"math"
	"math/rand/v2"
	"testing"

	"dynalloc/internal/record"
)

func TestQuantizedDefaultSplit(t *testing.T) {
	q := innerEstimator(Quantized).(*quantized)
	if len(q.quantiles) != 1 || q.quantiles[0] != 0.5 {
		t.Fatalf("default quantiles = %v, want [0.5]", q.quantiles)
	}
}

func TestQuantizedReps(t *testing.T) {
	q := newQuantized([]float64{0.5})
	observeValues(q, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	reps, weights := q.reps()
	if len(reps) != 2 {
		t.Fatalf("reps = %v", reps)
	}
	// Median split: index int(0.5*10)-1 = 4 -> value 5, then max 10.
	if reps[0] != 5 || reps[1] != 10 {
		t.Errorf("reps = %v, want [5 10]", reps)
	}
	if weights[0] != 5 || weights[1] != 5 {
		t.Errorf("weights = %v, want [5 5]", weights)
	}
}

func TestQuantizedPredictSamplesBothBuckets(t *testing.T) {
	q := newQuantized([]float64{0.5})
	observeValues(q, 1, 2, 3, 4, 100, 200, 300, 400)
	r := rand.New(rand.NewPCG(1, 1))
	counts := map[float64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[q.Predict(r)]++
	}
	if len(counts) != 2 {
		t.Fatalf("prediction support = %v, want 2 reps", counts)
	}
	for rep, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.5) > 0.02 {
			t.Errorf("rep %v frequency = %v, want ~0.5", rep, frac)
		}
	}
}

func TestQuantizedRetryEscalation(t *testing.T) {
	q := newQuantized([]float64{0.5})
	observeValues(q, 1, 2, 3, 4, 100, 200, 300, 400)
	r := rand.New(rand.NewPCG(2, 2))
	reps, _ := q.reps()
	low := reps[0]
	for i := 0; i < 50; i++ {
		got := q.Retry(low, r)
		if got <= low {
			t.Fatalf("Retry(%v) = %v, not an escalation", low, got)
		}
	}
	// Above the max rep: doubling.
	if got := q.Retry(400, r); got != 800 {
		t.Errorf("Retry(400) = %v, want 800", got)
	}
	if got := q.Retry(0, r); got <= 0 {
		t.Errorf("Retry(0) = %v, want positive", got)
	}
}

func TestQuantizedSingleRecord(t *testing.T) {
	q := newQuantized([]float64{0.5})
	q.Observe(record.Record{TaskID: 1, Value: 42, Time: 1})
	r := rand.New(rand.NewPCG(3, 3))
	if got := q.Predict(r); got != 42 {
		t.Errorf("single-record Predict = %v, want 42", got)
	}
}

func TestQuantizedEmpty(t *testing.T) {
	q := newQuantized(quantizedQuantiles)
	r := rand.New(rand.NewPCG(4, 4))
	if got := q.Predict(r); got != 0 {
		t.Errorf("empty Predict = %v, want 0", got)
	}
	if got := q.Retry(10, r); got != 20 {
		t.Errorf("empty Retry(10) = %v, want 20", got)
	}
}

func TestQuantizedMultipleQuantiles(t *testing.T) {
	q := newQuantized([]float64{0.25, 0.5, 0.75})
	var vals []float64
	for i := 1; i <= 100; i++ {
		vals = append(vals, float64(i))
	}
	observeValues(q, vals...)
	reps, weights := q.reps()
	if len(reps) != 4 {
		t.Fatalf("reps = %v, want 4 buckets", reps)
	}
	// Quantile indices int(q*100)-1 = 24, 49, 74 select values 25, 50, 75.
	wantReps := []float64{25, 50, 75, 100}
	for i := range wantReps {
		if reps[i] != wantReps[i] {
			t.Errorf("reps = %v, want %v", reps, wantReps)
			break
		}
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total != 100 {
		t.Errorf("weights %v sum to %v, want 100", weights, total)
	}
}
