package allocator

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dynalloc/internal/record"
)

func observeValues(e Estimator, values ...float64) {
	for i, v := range values {
		e.Observe(record.Record{TaskID: i + 1, Value: v, Sig: float64(i + 1), Time: 1})
	}
}

func TestMinWasteHandComputed(t *testing.T) {
	// Records (value, time=1): 10, 20, 100; max m = 100.
	//   a=10:  waste = 10*3 - 130 + 100*2 = 100
	//   a=20:  waste = 20*3 - 130 + 100*1 = 30
	//   a=100: waste = 100*3 - 130 + 0   = 170
	// argmin is a = 20.
	mw := &minWaste{}
	observeValues(mw, 10, 20, 100)
	r := rand.New(rand.NewPCG(1, 1))
	if got := mw.Predict(r); got != 20 {
		t.Errorf("MinWaste first allocation = %v, want 20", got)
	}
}

func TestMinWasteEmpty(t *testing.T) {
	mw := &minWaste{}
	r := rand.New(rand.NewPCG(2, 2))
	if got := mw.Predict(r); got != 0 {
		t.Errorf("empty Predict = %v, want 0", got)
	}
}

func TestMinWasteTimeWeighting(t *testing.T) {
	// A long-running small task shifts the optimum downward: wasting
	// (a - v) over a long time is expensive.
	mw := &minWaste{}
	mw.Observe(record.Record{TaskID: 1, Value: 10, Time: 1000})
	mw.Observe(record.Record{TaskID: 2, Value: 100, Time: 1})
	r := rand.New(rand.NewPCG(3, 3))
	if got := mw.Predict(r); got != 10 {
		t.Errorf("time-weighted MinWaste = %v, want 10", got)
	}
}

func TestMinWastePredictIsOptimalAmongCandidates(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		r := rand.New(rand.NewPCG(seed, 21))
		mw := &minWaste{}
		var vals, times []float64
		for i := 0; i < n; i++ {
			v := float64(1 + r.IntN(100000))
			tm := float64(1 + r.IntN(10000))
			vals = append(vals, v)
			times = append(times, tm)
			mw.Observe(record.Record{TaskID: i + 1, Value: v, Time: tm})
		}
		got := mw.Predict(rand.New(rand.NewPCG(0, 0)))
		// Naive evaluation of the expected-waste objective at a candidate.
		m := 0.0
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		waste := func(a float64) float64 {
			w := 0.0
			for i, v := range vals {
				if v <= a {
					w += times[i] * (a - v)
				} else {
					w += times[i] * (a + m - v)
				}
			}
			return w
		}
		best := waste(got)
		for _, a := range vals {
			if waste(a) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaxThroughputPrefersDenseSmallAllocations(t *testing.T) {
	// Values 10, 12, 100 (time 1 each): scores 1/30, (2/3)/12, 1/100;
	// the winner is 12.
	mt := &maxThroughput{}
	observeValues(mt, 10, 12, 100)
	r := rand.New(rand.NewPCG(4, 4))
	if got := mt.Predict(r); got != 12 {
		t.Errorf("MaxThroughput first allocation = %v, want 12", got)
	}
}

func TestMaxThroughputEmpty(t *testing.T) {
	mt := &maxThroughput{}
	r := rand.New(rand.NewPCG(5, 5))
	if got := mt.Predict(r); got != 0 {
		t.Errorf("empty Predict = %v, want 0", got)
	}
}

func TestMaxThroughputPredictIsOptimalAmongCandidates(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		r := rand.New(rand.NewPCG(seed, 22))
		mt := &maxThroughput{}
		var vals, times []float64
		for i := 0; i < n; i++ {
			v := float64(1 + r.IntN(100000))
			tm := float64(1 + r.IntN(10000))
			vals = append(vals, v)
			times = append(times, tm)
			mt.Observe(record.Record{TaskID: i + 1, Value: v, Time: tm})
		}
		got := mt.Predict(rand.New(rand.NewPCG(0, 0)))
		tAll := 0.0
		for _, tm := range times {
			tAll += tm
		}
		score := func(a float64) float64 {
			s := 0.0
			for i, v := range vals {
				if v <= a {
					s += times[i]
				}
			}
			return s / tAll / a
		}
		best := score(got)
		for _, a := range vals {
			if score(a) > best+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTovarRetryPolicy(t *testing.T) {
	for _, makeEst := range []func() Estimator{
		func() Estimator { return &minWaste{} },
		func() Estimator { return &maxThroughput{} },
	} {
		e := makeEst()
		observeValues(e, 10, 20, 100)
		r := rand.New(rand.NewPCG(6, 6))
		// At-most-once retry: escalate straight to the max seen.
		if got := e.Retry(20, r); got != 100 {
			t.Errorf("%T Retry(20) = %v, want 100", e, got)
		}
		// Beyond the max: doubling.
		if got := e.Retry(100, r); got != 200 {
			t.Errorf("%T Retry(100) = %v, want 200", e, got)
		}
		if got := e.Retry(0, r); got != 100 {
			t.Errorf("%T Retry(0) = %v, want 100", e, got)
		}
	}
	// With no records at all, retry still increases.
	e := &minWaste{}
	r := rand.New(rand.NewPCG(7, 7))
	if got := e.Retry(0, r); got != 1 {
		t.Errorf("no-record Retry(0) = %v, want 1", got)
	}
}
