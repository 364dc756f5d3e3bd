package dist

import (
	"math"
	"testing"
)

const sampleN = 20000

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func draw(t *testing.T, s Sampler, seed uint64, n int) []float64 {
	t.Helper()
	r := NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestConstant(t *testing.T) {
	xs := draw(t, Constant{V: 306}, 1, 100)
	for _, x := range xs {
		if x != 306 {
			t.Fatalf("constant sampler returned %v", x)
		}
	}
	if (Constant{V: 306}).Name() == "" {
		t.Error("empty name")
	}
}

func TestUniformRange(t *testing.T) {
	u := Uniform{Lo: 2000, Hi: 12000}
	xs := draw(t, u, 2, sampleN)
	for _, x := range xs {
		if x < 2000 || x >= 12000 {
			t.Fatalf("uniform draw %v out of range", x)
		}
	}
	m := mean(xs)
	if math.Abs(m-7000) > 100 {
		t.Errorf("uniform mean = %v, want ~7000", m)
	}
}

func TestNormalMoments(t *testing.T) {
	n := Normal{Mean: 8000, Stddev: 1500, Min: 0}
	xs := draw(t, n, 3, sampleN)
	m := mean(xs)
	if math.Abs(m-8000) > 50 {
		t.Errorf("normal mean = %v, want ~8000", m)
	}
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	sd := math.Sqrt(v / float64(len(xs)))
	if math.Abs(sd-1500) > 60 {
		t.Errorf("normal stddev = %v, want ~1500", sd)
	}
}

func TestNormalFloor(t *testing.T) {
	n := Normal{Mean: 10, Stddev: 100, Min: 5}
	for _, x := range draw(t, n, 4, sampleN) {
		if x < 5 {
			t.Fatalf("normal draw %v below floor", x)
		}
	}
}

func TestExponentialOffsetAndCap(t *testing.T) {
	e := Exponential{Offset: 2000, Mean: 3000, Cap: 50000}
	xs := draw(t, e, 5, sampleN)
	for _, x := range xs {
		if x < 2000 || x > 50000 {
			t.Fatalf("exponential draw %v outside [offset, cap]", x)
		}
	}
	m := mean(xs)
	if math.Abs(m-5000) > 150 {
		t.Errorf("exponential mean = %v, want ~5000", m)
	}
}

func TestLogNormal(t *testing.T) {
	l := LogNormal{Mu: math.Log(100), Sigma: 0.5, Cap: 10000}
	xs := draw(t, l, 6, sampleN)
	for _, x := range xs {
		if x <= 0 || x > 10000 {
			t.Fatalf("lognormal draw %v out of range", x)
		}
	}
	// Median of a lognormal is exp(mu) = 100; check via sample median proxy.
	below := 0
	for _, x := range xs {
		if x < 100 {
			below++
		}
	}
	frac := float64(below) / float64(len(xs))
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("lognormal median fraction = %v, want ~0.5", frac)
	}
}

func TestMixtureBimodal(t *testing.T) {
	m := Mixture{Components: []Component{
		{Weight: 1, Sampler: Normal{Mean: 3000, Stddev: 100}},
		{Weight: 1, Sampler: Normal{Mean: 9000, Stddev: 100}},
	}}
	xs := draw(t, m, 7, sampleN)
	lo, hi := 0, 0
	for _, x := range xs {
		switch {
		case x < 5000:
			lo++
		default:
			hi++
		}
	}
	fl := float64(lo) / float64(len(xs))
	if math.Abs(fl-0.5) > 0.02 {
		t.Errorf("bimodal low-mode fraction = %v, want ~0.5", fl)
	}
	if lo == 0 || hi == 0 {
		t.Error("bimodal sampler collapsed to one mode")
	}
}

func TestMixtureEmptyAndZeroWeight(t *testing.T) {
	r := NewRand(8)
	if (Mixture{}).Sample(r) != 0 {
		t.Error("empty mixture should sample 0")
	}
	z := Mixture{Components: []Component{{Weight: 0, Sampler: Constant{V: 5}}}}
	if z.Sample(r) != 0 {
		t.Error("zero-weight mixture should sample 0")
	}
}

func TestOutlier(t *testing.T) {
	o := Outlier{Base: Constant{V: 1}, Tail: Constant{V: 3}, P: 0.1}
	xs := draw(t, o, 9, sampleN)
	tail := 0
	for _, x := range xs {
		if x == 3 {
			tail++
		} else if x != 1 {
			t.Fatalf("unexpected draw %v", x)
		}
	}
	frac := float64(tail) / float64(len(xs))
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("outlier fraction = %v, want ~0.1", frac)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Base: Constant{V: 8000}, Factor: 1.0 / 4000, Min: 0.5}
	if got := s.Sample(NewRand(10)); got != 2 {
		t.Errorf("scaled draw = %v, want 2", got)
	}
	s2 := Scaled{Base: Constant{V: 100}, Factor: 1.0 / 4000, Min: 0.5}
	if got := s2.Sample(NewRand(10)); got != 0.5 {
		t.Errorf("scaled floor = %v, want 0.5", got)
	}
}

func TestPhasedBoundaries(t *testing.T) {
	p := Phased{
		Phases: []Sampler{
			Constant{V: 1},
			Constant{V: 2},
			Constant{V: 3},
		},
		Boundaries: []int{100, 200},
	}
	r := NewRand(11)
	checks := map[int]float64{0: 1, 99: 1, 100: 2, 199: 2, 200: 3, 999: 3}
	for idx, want := range checks {
		if got := p.SampleAt(idx, r); got != want {
			t.Errorf("SampleAt(%d) = %v, want %v", idx, got, want)
		}
	}
	if p.Sample(r) != 1 {
		t.Error("Sample should draw from the first phase")
	}
	if (Phased{}).Sample(r) != 0 {
		t.Error("empty Phased should sample 0")
	}
	if (Phased{}).SampleAt(5, r) != 0 {
		t.Error("empty Phased should sample 0 at any index")
	}
	for idx, want := range map[int]int{0: 100, 99: 100, 100: 200, 199: 200, 200: math.MaxInt} {
		if _, end := p.PhaseAt(idx); end != want {
			t.Errorf("PhaseAt(%d) ends at %d, want %d", idx, end, want)
		}
	}
}

func TestSamplerNames(t *testing.T) {
	samplers := []Sampler{
		Constant{V: 1},
		Uniform{Lo: 0, Hi: 1},
		Normal{Mean: 0, Stddev: 1},
		Exponential{Mean: 1},
		LogNormal{Mu: 0, Sigma: 1},
		Mixture{},
		Outlier{Base: Constant{}, Tail: Constant{}, P: 0},
		Scaled{Base: Constant{}, Factor: 1},
		Phased{},
	}
	for _, s := range samplers {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

// TestResolveDrawsIdentically pins dist.Resolve's contract: the resolved
// sampler returns the same values, bit for bit, from the same random
// stream.
func TestResolveDrawsIdentically(t *testing.T) {
	for _, s := range []Sampler{
		Uniform{Lo: 1, Hi: 5},
		Mixture{Components: []Component{
			{Weight: 0.45, Sampler: Normal{Mean: 450, Stddev: 15, Min: 200}},
			{Weight: 0.55, Sampler: Normal{Mean: 580, Stddev: 15, Min: 200}},
		}},
		Mixture{Components: []Component{
			{Weight: 0.1, Sampler: Constant{V: 2}},
			{Weight: 0.2, Sampler: Exponential{Mean: 1}},
			{Weight: 0.3, Sampler: LogNormal{Mu: 1, Sigma: 0.5}},
		}},
		Mixture{},
	} {
		resolved := Resolve(s)
		if resolved.Name() != s.Name() {
			t.Errorf("Resolve(%s) is named %s", s.Name(), resolved.Name())
		}
		a, b := NewRand(3), NewRand(3)
		for i := 0; i < 1000; i++ {
			if x, y := s.Sample(a), resolved.Sample(b); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: draw %d is %v resolved, %v not", s.Name(), i, y, x)
			}
		}
	}
}
