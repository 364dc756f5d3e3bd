package opportunistic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
)

func sorted(arr []Arrival) bool {
	return sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].At < arr[j].At })
}

func TestStatic(t *testing.T) {
	s := Static{N: 20}
	arr := s.Schedule(1)
	if len(arr) != 20 {
		t.Fatalf("got %d arrivals", len(arr))
	}
	for _, a := range arr {
		if a.At != 0 || a.Lifetime != 0 {
			t.Fatalf("static arrival = %+v, want immediate and permanent", a)
		}
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestBackfillRampsFromMinToMax(t *testing.T) {
	b := Backfill{Min: 20, Max: 50, Interval: 120}
	arr := b.Schedule(2)
	if len(arr) != 50 {
		t.Fatalf("got %d arrivals, want 50", len(arr))
	}
	immediate := 0
	for _, a := range arr {
		if a.At == 0 {
			immediate++
		}
		if a.Lifetime != 0 {
			t.Fatal("backfill workers should not have leases")
		}
	}
	if immediate != 20 {
		t.Errorf("%d immediate workers, want 20", immediate)
	}
	if !sorted(arr) {
		t.Error("arrivals not sorted")
	}
	// Later arrivals spread out in time.
	if arr[49].At <= arr[20].At {
		t.Error("ramp-up has no temporal spread")
	}
}

func TestBackfillDeterministic(t *testing.T) {
	b := Backfill{Min: 5, Max: 15, Interval: 60}
	a1, a2 := b.Schedule(7), b.Schedule(7)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestChurn(t *testing.T) {
	c := Churn{Initial: 10, MeanLifetime: 1800, MeanInterval: 300, Horizon: 7200}
	arr := c.Schedule(3)
	if len(arr) < 10 {
		t.Fatalf("got %d arrivals", len(arr))
	}
	if !sorted(arr) {
		t.Error("arrivals not sorted")
	}
	for _, a := range arr {
		if a.Lifetime < 60 {
			t.Fatalf("lease %v below the 60 s floor", a.Lifetime)
		}
		if a.At > c.Horizon {
			t.Fatalf("arrival at %v beyond horizon", a.At)
		}
	}
	replacements := 0
	for _, a := range arr {
		if a.At > 0 {
			replacements++
		}
	}
	if replacements == 0 {
		t.Error("no replacement arrivals within the horizon")
	}
}

func TestChurnKeepLastAlive(t *testing.T) {
	c := Churn{Initial: 2, MeanLifetime: 600, MeanInterval: 600, Horizon: 3600, KeepLastAlive: true}
	arr := c.Schedule(4)
	last := arr[len(arr)-1]
	if last.Lifetime != 0 {
		t.Errorf("last arrival lease = %v, want permanent", last.Lifetime)
	}
}

func TestPaperPool(t *testing.T) {
	arr := PaperPool().Schedule(5)
	if len(arr) != 50 {
		t.Errorf("paper pool has %d workers, want 50", len(arr))
	}
	immediate := 0
	for _, a := range arr {
		if a.At == 0 {
			immediate++
		}
	}
	if immediate != 20 {
		t.Errorf("paper pool starts with %d workers, want 20", immediate)
	}
}

// scheduleFingerprint hashes every arrival's time and lease, bit-exact.
func scheduleFingerprint(arr []Arrival) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range arr {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.At))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.Lifetime))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChurnScheduleFingerprints pins Churn.Schedule bit for bit at the
// end-to-end benchmark's churn parameters (its full and short sizes), so a
// change to how the schedule is built cannot move one arrival or lease.
func TestChurnScheduleFingerprints(t *testing.T) {
	full := Churn{Initial: 256, MeanLifetime: 260, MeanInterval: 1, Horizon: 12000, KeepLastAlive: true}
	short := Churn{Initial: 16, MeanLifetime: 260, MeanInterval: 20, Horizon: 4000, KeepLastAlive: true}
	for _, tc := range []struct {
		c    Churn
		seed uint64
		n    int
		want string
	}{
		{full, 1, 12323, "19c086dbab0c2d16a17708cec8305a114b87f97b96f86d0ad85b53a318a55b70"},
		{full, 7, 12169, "3970638a76662c4a9e524707ce9e88a7807947ccc88489be117b04194f7b22a1"},
		{full, 42, 12257, "c3321c1291eb670284ccf339983bc1d5adf7a1cdca393a5c82ce609396f4e5b7"},
		{short, 1, 220, "de46cfa450bfc7628d440215c5e5a6066e3663ccdc58e44446e59dea1c7f4614"},
		{short, 7, 193, "0aeb69f3b3dab3c03130601e5fd6e1f9b5031245d0dd179359ac9f79eb20054f"},
		{short, 42, 209, "3f05c97a2b44ab117d5c1d11d6d2876f7336af67b92cdb92bbf96e9ee5ab68be"},
	} {
		arr := tc.c.Schedule(tc.seed)
		if got := scheduleFingerprint(arr); len(arr) != tc.n || got != tc.want {
			t.Errorf("%+v seed %d: %d arrivals, fingerprint %s; want %d, %s", tc.c, tc.seed, len(arr), got, tc.n, tc.want)
		}
	}
}

// TestChurnScheduleInTimeOrder checks that Churn.Schedule, which builds its
// arrivals in time order instead of sorting them, does so for every shape
// of pool: with and without initial workers and a kept-alive last arrival,
// dense and sparse replacements, and a horizon before time zero.
func TestChurnScheduleInTimeOrder(t *testing.T) {
	for _, c := range []Churn{
		{Initial: 256, MeanLifetime: 260, MeanInterval: 1, Horizon: 12000, KeepLastAlive: true},
		{Initial: 16, MeanLifetime: 260, MeanInterval: 20, Horizon: 4000, KeepLastAlive: true},
		{Initial: 0, MeanLifetime: 600, MeanInterval: 600, Horizon: 3600},
		{Initial: 3, MeanLifetime: 10, MeanInterval: 1e-3, Horizon: 5, KeepLastAlive: true},
		{Initial: 5, MeanLifetime: 100, MeanInterval: 1e6, Horizon: 10, KeepLastAlive: true},
		{Initial: 4, MeanLifetime: 100, MeanInterval: 10, Horizon: 0, KeepLastAlive: true},
		{Initial: 4, MeanLifetime: 100, MeanInterval: 10, Horizon: -5, KeepLastAlive: true},
	} {
		for seed := uint64(0); seed < 50; seed++ {
			arr := c.Schedule(seed)
			if !sorted(arr) {
				t.Fatalf("%+v seed %d: arrivals not in time order", c, seed)
			}
			if c.KeepLastAlive && c.Horizon < 0 && arr[0].At != c.Horizon {
				t.Fatalf("%+v seed %d: first arrival at %v, want the kept-alive one at %v", c, seed, arr[0].At, c.Horizon)
			}
		}
	}
}
