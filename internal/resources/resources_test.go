package resources

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Cores:  "cores",
		Memory: "memory",
		Disk:   "disk",
		Time:   "time",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("out-of-range kind string = %q", got)
	}
}

func TestKindUnit(t *testing.T) {
	if Memory.Unit() != "MB" || Disk.Unit() != "MB" {
		t.Errorf("memory/disk unit should be MB")
	}
	if Time.Unit() != "s" {
		t.Errorf("time unit should be s, got %q", Time.Unit())
	}
	if Kind(-1).Unit() != "?" {
		t.Errorf("invalid kind unit should be ?")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) should fail")
	}
}

func TestKindsOrder(t *testing.T) {
	ks := Kinds()
	if len(ks) != int(NumKinds) {
		t.Fatalf("Kinds() returned %d kinds, want %d", len(ks), NumKinds)
	}
	for i, k := range ks {
		if int(k) != i {
			t.Errorf("Kinds()[%d] = %v, want kind %d", i, k, i)
		}
	}
	ak := AllocatedKinds()
	if len(ak) != 3 || ak[0] != Cores || ak[1] != Memory || ak[2] != Disk {
		t.Errorf("AllocatedKinds() = %v, want [cores memory disk]", ak)
	}
}

// TestKindSet: a set lists its kinds in canonical order whatever order they
// were given in, and a value that is no kind leaves the set outside AllKinds.
func TestKindSet(t *testing.T) {
	s := KindSetOf([]Kind{Time, Cores, Time})
	if s != 1<<Cores|1<<Time || s&^AllKinds != 0 {
		t.Errorf("KindSetOf(time, cores, time) = %#b", s)
	}
	if got := s.AppendKinds([]Kind{Disk}); len(got) != 3 || got[1] != Cores || got[2] != Time {
		t.Errorf("AppendKinds = %v, want [disk cores time]", got)
	}
	if AllKinds.AppendKinds(nil) == nil || KindSet(0).AppendKinds(nil) != nil {
		t.Error("AllKinds lists nothing, or the empty set lists something")
	}
	for _, bad := range []Kind{-1, NumKinds, 64} {
		if s := KindSetOf([]Kind{Memory, bad}); s&^AllKinds == 0 {
			t.Errorf("KindSetOf(memory, %d) = %#b, inside AllKinds", bad, s)
		}
	}
}

func TestVectorBasics(t *testing.T) {
	v := New(2, 1024, 2048, 60)
	if v.Get(Cores) != 2 || v.Get(Memory) != 1024 || v.Get(Disk) != 2048 || v.Get(Time) != 60 {
		t.Fatalf("New round-trip failed: %v", v)
	}
	w := v.With(Memory, 512)
	if w.Get(Memory) != 512 {
		t.Errorf("With did not set memory: %v", w)
	}
	if v.Get(Memory) != 1024 {
		t.Errorf("With mutated receiver: %v", v)
	}
}

func TestVectorArithmetic(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(10, 20, 30, 40)
	if got := a.Add(b); got != New(11, 22, 33, 44) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != New(9, 18, 27, 36) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(3); got != New(3, 6, 9, 12) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Max(New(0, 5, 2, 50)); got != New(1, 5, 3, 50) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Min(New(0, 5, 2, 50)); got != New(0, 2, 2, 4) {
		t.Errorf("Min = %v", got)
	}
}

func TestFitsWithinAndExceeded(t *testing.T) {
	limit := New(4, 4096, 4096, 600)
	fits := New(4, 4096, 4096, 600)
	if !fits.FitsWithin(limit) {
		t.Error("equal vector should fit (c <= c_a)")
	}
	if ex := fits.Exceeded(limit); len(ex) != 0 {
		t.Errorf("equal vector exceeded = %v, want none", ex)
	}
	over := New(5, 4096, 5000, 600)
	if over.FitsWithin(limit) {
		t.Error("over vector should not fit")
	}
	ex := over.Exceeded(limit)
	if len(ex) != 2 || ex[0] != Cores || ex[1] != Disk {
		t.Errorf("Exceeded = %v, want [cores disk]", ex)
	}
}

func TestIsZeroNonNegative(t *testing.T) {
	var z Vector
	if !z.IsZero() {
		t.Error("zero vector should be zero")
	}
	if New(0, 0, 1, 0).IsZero() {
		t.Error("non-zero vector reported zero")
	}
	if !New(0, 1, 2, 3).NonNegative() {
		t.Error("non-negative vector misreported")
	}
	if New(0, -1, 2, 3).NonNegative() {
		t.Error("negative vector misreported")
	}
}

func TestPaperShapes(t *testing.T) {
	w := PaperWorker()
	if w.Get(Cores) != 16 || w.Get(Memory) != 65536 || w.Get(Disk) != 65536 {
		t.Errorf("PaperWorker = %v", w)
	}
	e := PaperExploration()
	if e.Get(Cores) != 1 || e.Get(Memory) != 1024 || e.Get(Disk) != 1024 {
		t.Errorf("PaperExploration = %v", e)
	}
	if !e.FitsWithin(w) {
		t.Error("exploration allocation must fit within a paper worker")
	}
}

func TestVectorString(t *testing.T) {
	s := New(1, 2, 3, 4).String()
	want := "cores=1.0 memory=2.0MB disk=3.0MB time=4.0s"
	if s != want {
		t.Errorf("String = %q, want %q", s, want)
	}
}

// Property: Exceeded is empty iff FitsWithin holds.
func TestExceededConsistentWithFits(t *testing.T) {
	f := func(a, b [4]float64) bool {
		va, vb := Vector(a), Vector(b)
		// Map NaNs to zero to keep comparisons total.
		for k := range va {
			if math.IsNaN(va[k]) {
				va[k] = 0
			}
			if math.IsNaN(vb[k]) {
				vb[k] = 0
			}
		}
		return (len(va.Exceeded(vb)) == 0) == va.FitsWithin(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add then Sub is identity (up to float equality on finite values).
func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b [4]float64) bool {
		va, vb := Vector(a), Vector(b)
		for k := range va {
			if math.IsNaN(va[k]) || math.IsInf(va[k], 0) {
				va[k] = 1
			}
			if math.IsNaN(vb[k]) || math.IsInf(vb[k], 0) {
				vb[k] = 1
			}
			// Keep magnitudes comparable so the subtraction is exact-ish.
			va[k] = math.Mod(va[k], 1e6)
			vb[k] = math.Mod(vb[k], 1e6)
		}
		got := va.Add(vb).Sub(vb)
		for k := range got {
			if math.Abs(got[k]-va[k]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Max dominates both inputs; Min is dominated by both.
func TestMaxMinDomination(t *testing.T) {
	f := func(a, b [4]float64) bool {
		va, vb := Vector(a), Vector(b)
		for k := range va {
			if math.IsNaN(va[k]) {
				va[k] = 0
			}
			if math.IsNaN(vb[k]) {
				vb[k] = 0
			}
		}
		mx := va.Max(vb)
		mn := va.Min(vb)
		return va.FitsWithin(mx) && vb.FitsWithin(mx) &&
			mn.FitsWithin(va) && mn.FitsWithin(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
