package allocator

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dynalloc/internal/resources"
)

// TestUnitsRoundTrip pins the two conversions at the allocator's boundary
// on values with no exact millicore or millisecond: unitsAbove is the
// smallest whole unit count whose value covers x, unitsBelow the largest
// whose value stays at or under it.
func TestUnitsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		x := r.Float64() * math.Pow(10, float64(r.IntN(8)-3))
		for _, scale := range []float64{1, 1000} {
			up, down := unitsAbove(x, scale), unitsBelow(x, scale)
			if up != math.Trunc(up) || !(up/scale >= x) || up > 0 && (up-1)/scale >= x {
				t.Fatalf("unitsAbove(%v, %v) = %v", x, scale, up)
			}
			if down != math.Trunc(down) || !(down/scale <= x) || (down+1)/scale <= x {
				t.Fatalf("unitsBelow(%v, %v) = %v", x, scale, down)
			}
		}
	}
	// Whole units convert exactly both ways.
	for _, x := range []float64{0, 0.001, 1.1, 2.3, 16, 250, 65536} {
		if q := unitsAbove(x, 1000); unitsBelow(q/1000, 1000) != q {
			t.Errorf("%v: unitsAbove %v does not come back through unitsBelow", x, q)
		}
	}
}

// TestServedRepresentativeCoversItsBucket is the property the rounding up
// exists for: a bucketing allocator rounds each observed peak up to a whole
// millicore or millisecond, so the representative it serves for a bucket —
// the bucket's largest value, converted back — is never below any true peak
// whose record fell in that bucket. Cores and time are the kinds whose peaks
// are fractional in their unit.
func TestServedRepresentativeCoversItsBucket(t *testing.T) {
	for _, alg := range []Name{Greedy, Exhaustive} {
		f := func(seed uint64, nRaw uint8) bool {
			n := 20 + int(nRaw)
			r := rand.New(rand.NewPCG(seed, 9))
			a := MustNew(alg, Config{Seed: seed, AllocateTime: true})
			var peaks []resources.Vector
			for id := 1; id <= n; id++ {
				p := resources.New(0.01+8*r.Float64(), 1000, 1000, 0.5+100*r.Float64())
				if r.IntN(4) == 0 && len(peaks) > 0 {
					p = peaks[r.IntN(len(peaks))] // repeats share an entry
				}
				peaks = append(peaks, p)
				a.Observe("c", id, p, p.Get(resources.Time))
			}
			for _, k := range []resources.Kind{resources.Cores, resources.Time} {
				scale := observeScale.Get(k)
				st := a.cats["c"].est[k].(*explorer).inner.(*bucketing).state
				buckets := st.Buckets()
				v := st.Records().View()
				for _, p := range peaks {
					// The bucket holding p's entry.
					e := v.SearchValue(unitsAbove(p.Get(k), scale)) + 1
					for _, b := range buckets {
						if b.Lo <= e && e <= b.Hi && !(b.Rep/scale >= p.Get(k)) {
							t.Logf("%s %s: bucket [%d, %d] serves %v below a true peak of %v", alg, k, b.Lo, b.Hi, b.Rep/scale, p.Get(k))
							return false
						}
					}
				}
				// And what Allocate serves is one of those representatives.
				got := a.Allocate("c", n+1).Get(k)
				found := false
				for _, b := range buckets {
					found = found || got == b.Rep/scale
				}
				if !found {
					t.Logf("%s %s: Allocate served %v, no bucket's representative", alg, k, got)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}
