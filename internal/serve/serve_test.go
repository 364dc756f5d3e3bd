package serve

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// startServer boots a server on a loopback port and registers cleanup.
func startServer(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	s := NewServer(opts...)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

func dial(t *testing.T, addr, tenant, alg string, seed uint64) *Client {
	t.Helper()
	c, err := Dial(addr, tenant, alg, seed)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr, "wf-1", string(allocator.MaxSeen), 7)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Ten observations graduate the category out of exploratory whole-machine
	// allocations, so the escalation assertion below has headroom.
	for i := 1; i <= 10; i++ {
		if err := c.Observe("fit", i, resources.New(1, 300, 50, 12), 12); err != nil {
			t.Fatalf("observe: %v", err)
		}
	}
	alloc, err := c.Allocate("fit", 11)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if alloc == (resources.Vector{}) {
		t.Fatal("allocate returned a zero vector")
	}
	alloc2, err := c.Retry("fit", 11, alloc, []resources.Kind{resources.Memory})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if alloc2.Get(resources.Memory) <= alloc.Get(resources.Memory) {
		t.Errorf("retry did not escalate memory: %v -> %v", alloc.Get(resources.Memory), alloc2.Get(resources.Memory))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	want := TenantStats{Tenant: "wf-1", Connections: 1, Allocates: 1, Retries: 1,
		Observes: 10, Categories: 1, Records: 10}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// TestServeParityWithEmbedded replays the golden synthetic scheduler loop
// (the same one internal/allocator pins fingerprints over) against a
// single-tenant service and an embedded allocator side by side. Every vector
// the service streams back must be bit-identical to the embedded one —
// proving the service layer adds no drift: same algorithm state, same RNG
// stream, same escalation ladder.
func TestServeParityWithEmbedded(t *testing.T) {
	_, addr := startServer(t) // decay off: exact parity mode
	for _, alg := range []allocator.Name{allocator.Exhaustive, allocator.MaxSeen, allocator.Percentile} {
		for _, seed := range []uint64{1, 2} {
			embedded := allocator.MustNew(alg, allocator.Config{Seed: seed + 100})
			c := dial(t, addr, string(alg)+"-parity-"+string(rune('0'+seed)), string(alg), seed+100)

			drive := rand.New(rand.NewPCG(seed, 0xA11))
			cats := []string{"preproc", "fit"}
			for task := 1; task <= 250; task++ {
				cat := cats[task%len(cats)]
				peak := resources.New(
					1+3*drive.Float64(),
					200+3000*drive.Float64(),
					100+800*drive.Float64(),
					10+50*drive.Float64(),
				)
				if drive.Float64() < 0.3 {
					peak = peak.Scale(4)
				}
				want := embedded.Allocate(cat, task)
				got, err := c.Allocate(cat, task)
				if err != nil {
					t.Fatalf("%s/seed%d task %d: allocate: %v", alg, seed, task, err)
				}
				if got != want {
					t.Fatalf("%s/seed%d task %d: service alloc %v != embedded %v", alg, seed, task, got, want)
				}
				alloc := want
				for hop := 0; hop < 64; hop++ {
					var exceeded []resources.Kind
					for _, k := range resources.AllocatedKinds() {
						if peak.Get(k) > alloc.Get(k) {
							exceeded = append(exceeded, k)
						}
					}
					if len(exceeded) == 0 {
						break
					}
					want = embedded.Retry(cat, task, alloc, exceeded)
					got, err = c.Retry(cat, task, alloc, exceeded)
					if err != nil {
						t.Fatalf("%s/seed%d task %d: retry: %v", alg, seed, task, err)
					}
					if got != want {
						t.Fatalf("%s/seed%d task %d hop %d: service retry %v != embedded %v", alg, seed, task, hop, got, want)
					}
					alloc = want
				}
				rt := 10 + 50*drive.Float64()
				embedded.Observe(cat, task, peak, rt)
				if err := c.Observe(cat, task, peak, rt); err != nil {
					t.Fatalf("%s/seed%d task %d: observe: %v", alg, seed, task, err)
				}
			}
		}
	}
}

// TestServeTenantIsolation: two tenants observing disjoint workloads in the
// same category names must not leak state into each other, and two tenants
// with identical algorithm+seed+stream must serve identical vectors.
func TestServeTenantIsolation(t *testing.T) {
	_, addr := startServer(t)
	small := dial(t, addr, "small", string(allocator.MaxSeen), 3)
	big := dial(t, addr, "big", string(allocator.MaxSeen), 3)

	for i := 1; i <= 20; i++ {
		if err := small.Observe("fit", i, resources.New(1, 100, 10, 5), 5); err != nil {
			t.Fatal(err)
		}
		if err := big.Observe("fit", i, resources.New(8, 8000, 900, 50), 50); err != nil {
			t.Fatal(err)
		}
	}
	sv, err := small.Allocate("fit", 21)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := big.Allocate("fit", 21)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Get(resources.Memory) >= bv.Get(resources.Memory) {
		t.Errorf("isolation broken: small tenant predicts %v MB, big tenant %v MB",
			sv.Get(resources.Memory), bv.Get(resources.Memory))
	}

	// Twin tenants: same alg, seed, and observation stream => same vectors.
	twinA := dial(t, addr, "twin-a", string(allocator.Exhaustive), 11)
	twinB := dial(t, addr, "twin-b", string(allocator.Exhaustive), 11)
	for i := 1; i <= 30; i++ {
		peak := resources.New(float64(1+i%4), float64(100*i%1700), 50, 5)
		if err := twinA.Observe("c", i, peak, 5); err != nil {
			t.Fatal(err)
		}
		if err := twinB.Observe("c", i, peak, 5); err != nil {
			t.Fatal(err)
		}
	}
	va, _ := twinA.Allocate("c", 31)
	vb, _ := twinB.Allocate("c", 31)
	if va != vb {
		t.Errorf("twin tenants diverged: %v vs %v", va, vb)
	}
}

// TestServeDecayBoundsRecords: with decay on, a category's record count stays
// bounded by MaxRecords however many observations stream in, and predictions
// keep tracking the recent window.
func TestServeDecayBoundsRecords(t *testing.T) {
	const maxRecords, window = 50, 25
	_, addr := startServer(t, WithMaxRecords(maxRecords), WithDecayWindow(window))
	c := dial(t, addr, "longrun", string(allocator.MaxSeen), 1)

	for i := 1; i <= 1000; i++ {
		if err := c.Observe("fit", i, resources.New(1, float64(100+i%400), 10, 5), 5); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Observes != 1000 {
		t.Errorf("observes = %d", st.Observes)
	}
	if st.Records > maxRecords {
		t.Errorf("records %d exceed decay bound %d", st.Records, maxRecords)
	}
	if st.Decays == 0 {
		t.Error("decay never triggered over 1000 observations")
	}
	// The allocator still predicts from the retained window.
	v, err := c.Allocate("fit", 1001)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(resources.Memory) <= 0 {
		t.Errorf("post-decay prediction degenerate: %v", v)
	}
}

// TestServeReconnectContinuesState: tenant state (records, counters)
// survives its last connection hanging up; a reconnect attaches to it.
func TestServeReconnectContinuesState(t *testing.T) {
	s, addr := startServer(t)
	c1, err := Dial(addr, "sticky", string(allocator.MaxSeen), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Observe("fit", 1, resources.New(2, 500, 50, 9), 9); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Stats(); err != nil { // barrier so the observe landed
		t.Fatal(err)
	}
	c1.Close()

	c2 := dial(t, addr, "sticky", "", 0) // alg/seed ignored on reattach
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Observes != 1 || st.Records != 1 {
		t.Errorf("state lost across reconnect: %+v", st)
	}
	if n := s.Tenants(); n != 1 {
		t.Errorf("tenant count = %d", n)
	}
}

// TestServeTenantTTL: an idle, disconnected tenant is evicted after the TTL;
// a connected one is not.
func TestServeTenantTTL(t *testing.T) {
	s, addr := startServer(t, WithTenantTTL(80*time.Millisecond))
	keep := dial(t, addr, "keep", "", 0)
	gone, err := Dial(addr, "gone", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Observe("c", 1, resources.New(1, 100, 10, 1), 1); err != nil {
		t.Fatal(err)
	}
	gone.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.Tenants() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle tenant not evicted: %d tenants, %d evicted", s.Tenants(), s.TenantsEvicted())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.TenantsEvicted() != 1 {
		t.Errorf("evicted = %d", s.TenantsEvicted())
	}
	// The connected tenant survived the sweeps.
	if err := keep.Ping(); err != nil {
		t.Errorf("surviving tenant unreachable: %v", err)
	}
}

// TestServeDrain: Close notifies clients with a drain frame; later calls on
// the drained client fail with ErrDraining, and Close is idempotent.
func TestServeDrain(t *testing.T) {
	s, addr := startServer(t, WithServerDrainTimeout(time.Second))
	c := dial(t, addr, "draining", "", 0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The drain frame races the call; accept either the typed error or the
	// subsequent connection teardown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(); err != nil {
			if errors.Is(err, ErrDraining) {
				break
			}
			if strings.Contains(err.Error(), "connection") || strings.Contains(err.Error(), "EOF") {
				break
			}
			t.Fatalf("unexpected drain error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("client never saw the drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close() // idempotent
}

// TestServeProtocolErrors covers the error frames: bad algorithm, missing
// tenant, double register, a server-to-client frame sent by a client, and a
// non-register first frame. None of them is malformed: each is answered, and
// only the last costs the connection.
func TestServeProtocolErrors(t *testing.T) {
	s, addr := startServer(t)

	if _, err := Dial(addr, "bad-alg", "no-such-algorithm", 0); err == nil {
		t.Error("register with unknown algorithm succeeded")
	}
	if _, err := Dial(addr, "", "", 0); err == nil {
		t.Error("register without tenant name succeeded")
	}

	c := dial(t, addr, "proto", "", 0)
	if _, err := c.call(Frame{Type: TypeAlloc}); err == nil {
		t.Error("a client sending an alloc frame succeeded")
	}
	// The connection survives protocol errors.
	if err := c.Ping(); err != nil {
		t.Errorf("connection died after error frames: %v", err)
	}

	rc := rawDial(t, addr)
	rc.register("proto-raw")
	rc.write(rawRegister("again"), rawPing(5))
	if f, err := rc.readFrame(); err != nil || f.Type != TypeError || !strings.Contains(f.Error, "already registered") {
		t.Errorf("double register: frame %+v err %v, want an error frame", f, err)
	}
	if f, err := rc.readFrame(); err != nil || f.Type != TypePong || f.Seq != 5 {
		t.Errorf("after a double register: frame %+v err %v, want pong 5", f, err)
	}

	first := rawDial(t, addr)
	first.write(rawPing(1))
	first.refused("first frame must be a register frame")
	if n := s.DecodeErrors(); n != 0 {
		t.Errorf("DecodeErrors = %d, want 0", n)
	}
}

// TestServerStatsSorted: Server.Stats lists every tenant, sorted by name.
func TestServerStatsSorted(t *testing.T) {
	s, addr := startServer(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		c := dial(t, addr, name, "", 0)
		if _, err := c.Allocate("c", 1); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d tenants", len(stats))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if stats[i].Tenant != want {
			t.Errorf("stats[%d] = %s, want %s", i, stats[i].Tenant, want)
		}
		if stats[i].Allocates != 1 {
			t.Errorf("%s allocates = %d", stats[i].Tenant, stats[i].Allocates)
		}
	}
}
