package allocator

import (
	"math"
	"math/rand/v2"
	"testing"

	"dynalloc/internal/record"
	"dynalloc/internal/resources"
)

func TestExtendedNames(t *testing.T) {
	if len(ExtendedNames()) != 9 {
		t.Errorf("ExtendedNames() = %v", ExtendedNames())
	}
	for _, n := range []Name{KMeans, Percentile} {
		if _, err := ParseName(string(n)); err != nil {
			t.Errorf("ParseName(%s): %v", n, err)
		}
		if _, err := New(n, Config{Seed: 1}); err != nil {
			t.Errorf("New(%s): %v", n, err)
		}
	}
	// The paper set stays seven.
	if len(Names()) != 7 {
		t.Error("Names() must stay the paper's seven")
	}
}

func TestKMeansFindsWellSeparatedClusters(t *testing.T) {
	km := newKMeans(2)
	for i, v := range []float64{10, 11, 12, 13, 1000, 1001, 1002, 1003} {
		km.Observe(record.Record{TaskID: i + 1, Value: v, Sig: 1, Time: 1})
	}
	reps, weights := km.clusters()
	if len(reps) != 2 {
		t.Fatalf("reps = %v", reps)
	}
	if reps[0] != 13 || reps[1] != 1003 {
		t.Errorf("reps = %v, want [13 1003]", reps)
	}
	if weights[0] != 4 || weights[1] != 4 {
		t.Errorf("weights = %v", weights)
	}
}

func TestKMeansPredictAndRetry(t *testing.T) {
	km := newKMeans(2)
	for i, v := range []float64{10, 11, 12, 13, 1000, 1001, 1002, 1003} {
		km.Observe(record.Record{TaskID: i + 1, Value: v, Sig: 1, Time: 1})
	}
	r := rand.New(rand.NewPCG(1, 1))
	sawLow, sawHigh := false, false
	for i := 0; i < 200; i++ {
		switch km.Predict(r) {
		case 13:
			sawLow = true
		case 1003:
			sawHigh = true
		default:
			t.Fatal("prediction not a cluster representative")
		}
	}
	if !sawLow || !sawHigh {
		t.Error("predictions collapsed to one cluster")
	}
	if got := km.Retry(13, r); got != 1003 {
		t.Errorf("Retry(13) = %v, want 1003", got)
	}
	if got := km.Retry(1003, r); got != 2006 {
		t.Errorf("Retry(1003) = %v, want doubling", got)
	}
	if got := km.Retry(0, r); got <= 0 {
		t.Errorf("Retry(0) = %v", got)
	}
}

func TestKMeansEmptyAndDegenerate(t *testing.T) {
	km := innerEstimator(KMeans).(*kmeans)
	if km.k != 3 {
		t.Errorf("default k = %d", km.k)
	}
	r := rand.New(rand.NewPCG(2, 2))
	if km.Predict(r) != 0 {
		t.Error("empty predict should be 0")
	}
	km.Observe(record.Record{TaskID: 1, Value: 42, Sig: 1})
	if got := km.Predict(r); got != 42 {
		t.Errorf("single-record predict = %v", got)
	}
	// Constant values: one effective cluster.
	km2 := newKMeans(3)
	for i := 0; i < 10; i++ {
		km2.Observe(record.Record{TaskID: i + 1, Value: 306, Sig: 1})
	}
	if got := km2.Predict(r); got != 306 {
		t.Errorf("constant predict = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	p := newPercentile(0.9)
	for i := 1; i <= 100; i++ {
		p.Observe(record.Record{TaskID: i, Value: float64(i), Sig: 1, Time: 1})
	}
	r := rand.New(rand.NewPCG(3, 3))
	if got := p.Predict(r); got != 90 {
		t.Errorf("P90 of 1..100 = %v, want 90", got)
	}
	if got := p.Retry(90, r); got != 100 {
		t.Errorf("Retry(90) = %v, want max", got)
	}
	if got := p.Retry(100, r); got != 200 {
		t.Errorf("Retry(100) = %v, want doubling", got)
	}
}

func TestPercentileDefaults(t *testing.T) {
	if innerEstimator(Percentile).(*percentile).q != 0.95 {
		t.Error("default quantile should be 0.95")
	}
	r := rand.New(rand.NewPCG(4, 4))
	if newPercentile(0.5).Predict(r) != 0 {
		t.Error("empty predict should be 0")
	}
}

func TestExtensionsEndToEnd(t *testing.T) {
	for _, n := range []Name{KMeans, Percentile} {
		a := MustNew(n, Config{Seed: 5})
		for i := 1; i <= 40; i++ {
			alloc := a.Allocate("cat", i)
			for _, k := range resources.AllocatedKinds() {
				if alloc.Get(k) <= 0 {
					t.Fatalf("%s: non-positive allocation", n)
				}
			}
			mem := 100 + 50*math.Mod(float64(i), 4)
			a.Observe("cat", i, resources.New(1, mem, 50, 0), 10)
		}
		alloc := a.Allocate("cat", 41)
		if alloc.Get(resources.Memory) > 1024 {
			t.Errorf("%s: steady-state memory %v did not adapt below exploration", n, alloc.Get(resources.Memory))
		}
	}
}

// innerEstimator is the memory estimator a default-configured allocator of
// alg builds, inside its exploratory-mode wrapper.
func innerEstimator(alg Name) Estimator {
	return MustNew(alg, Config{Seed: 1}).category("c").est[resources.Memory].(*explorer).inner
}
