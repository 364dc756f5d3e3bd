package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// Each load below sets up one benchmark's server and clients and returns
// drive: drive(n) completes n Allocate round trips. The benchmark times
// drive(b.N), and TestRoundTripAllocCeilings counts what drive(1000)
// allocates.

// benchServer starts a server with record decay on, so the per-op cost is
// the steady state a long-lived deployment sees, not an ever-growing record
// list. It closes when tb's test or benchmark ends.
func benchServer(tb testing.TB) string {
	s := NewServer(WithMaxRecords(512))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return addr
}

// benchDial connects to tenant on an exhaustive-bucketing allocator; the
// client closes when tb's test or benchmark ends.
func benchDial(tb testing.TB, addr, tenant string, seed uint64, opts ...ClientOption) *Client {
	c, err := Dial(addr, tenant, string(allocator.Exhaustive), seed, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// warm takes c's tenant out of exploratory mode, so the steady-state
// prediction path, not the fixed exploration constant, is measured.
func warm(tb testing.TB, c *Client) {
	for task := 1; task <= 20; task++ {
		if err := c.Observe("fit", task, resources.New(2, 1000, 300, 30), 30); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := c.Stats(); err != nil { // barrier: observes applied
		tb.Fatal(err)
	}
}

// driveCalls returns a drive with one goroutine per entry of callers (an
// entry may repeat, to keep several calls in flight on one connection).
// With observe set it also observes half the allocation of every fourth
// task, so the estimators keep learning.
func driveCalls(tb testing.TB, callers []*Client, observe bool) func(n int) {
	var taskID atomic.Int64
	taskID.Store(1000)
	return func(n int) {
		var remaining atomic.Int64
		remaining.Store(int64(n))
		var wg sync.WaitGroup
		for _, c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for remaining.Add(-1) >= 0 {
					task := int(taskID.Add(1))
					alloc, err := c.Allocate("fit", task)
					if err != nil {
						tb.Error(err)
						return
					}
					if observe && task%4 == 0 {
						if err := c.Observe("fit", task, alloc.Scale(0.5), 30); err != nil {
							tb.Error(err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// tenantsLoad is sustained service throughput: `tenants` isolated tenants,
// `connsPerTenant` connections each, one goroutine per connection streaming
// requests with a 25% observe mix as fast as the service answers, so the
// concurrency under test is the client fleet, not the core count.
func tenantsLoad(tb testing.TB, tenants, connsPerTenant int) func(n int) {
	addr := benchServer(tb)
	var callers []*Client
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("bench-%02d", ti)
		for ci := 0; ci < connsPerTenant; ci++ {
			c := benchDial(tb, addr, name, uint64(ti))
			if ci == 0 {
				warm(tb, c)
			}
			callers = append(callers, c)
		}
	}
	return driveCalls(tb, callers, true)
}

// pipelinedLoad is one connection driven at a fixed pipeline depth: `depth`
// goroutines keep that many Allocate calls in flight, so the wire carries
// coalesced bursts instead of lockstep request/response pairs. Depth 1 is
// the protocol floor (one syscall pair per round trip); deeper windows show
// how far flush coalescing and the zero-alloc codec raise throughput on the
// same connection.
func pipelinedLoad(tb testing.TB, depth int) func(n int) {
	addr := benchServer(tb)
	c := benchDial(tb, addr, "pipelined", 1, WithPipelineWindow(max(2*depth, 8)))
	warm(tb, c)
	callers := make([]*Client, depth)
	for i := range callers {
		callers[i] = c
	}
	return driveCalls(tb, callers, false)
}

// benchLoad times drive(b.N) and reports round trips per second.
func benchLoad(b *testing.B, drive func(n int)) {
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkServePipelined1 is the unpipelined floor on a single connection.
func BenchmarkServePipelined1(b *testing.B) { benchLoad(b, pipelinedLoad(b, 1)) }

// BenchmarkServePipelined8 keeps 8 calls in flight.
func BenchmarkServePipelined8(b *testing.B) { benchLoad(b, pipelinedLoad(b, 8)) }

// BenchmarkServePipelined64 keeps 64 calls in flight — the headline
// pipelined-throughput number.
func BenchmarkServePipelined64(b *testing.B) { benchLoad(b, pipelinedLoad(b, 64)) }

// BenchmarkServe8Tenants is the headline service number: sustained
// allocation throughput across 8 concurrent tenants.
func BenchmarkServe8Tenants(b *testing.B) { benchLoad(b, tenantsLoad(b, 8, 2)) }

// BenchmarkServe16Tenants doubles the tenant count to show throughput holds
// as isolated tenants are added.
func BenchmarkServe16Tenants(b *testing.B) { benchLoad(b, tenantsLoad(b, 16, 2)) }

// BenchmarkServe1Tenant is the single-stream baseline: one tenant, one
// connection, request/response in lockstep — the protocol floor.
func BenchmarkServe1Tenant(b *testing.B) { benchLoad(b, tenantsLoad(b, 1, 1)) }

// TestRoundTripAllocCeilings holds every BenchmarkServe* load to a ceiling
// on the allocations of one round trip, counted over 1000 of them after as
// many to warm up. The binary frame layout and the pooled call slots make a
// steady-state Allocate round trip allocation-free: the pipelined loads
// measure under 0.1, their driver goroutines' spin-up. The tenant loads
// also observe, and the allocator's records and recomputes cost ~1 per op
// (~2.5 under -race, whose sync.Pool drops entries). Past a ceiling the
// frame hot path started allocating again.
func TestRoundTripAllocCeilings(t *testing.T) {
	const trips = 1000
	for _, tc := range []struct {
		name    string
		load    func(testing.TB) func(n int)
		ceiling float64
	}{
		{"Pipelined1", func(tb testing.TB) func(int) { return pipelinedLoad(tb, 1) }, 1},
		{"Pipelined8", func(tb testing.TB) func(int) { return pipelinedLoad(tb, 8) }, 1},
		{"Pipelined64", func(tb testing.TB) func(int) { return pipelinedLoad(tb, 64) }, 1},
		{"1Tenant", func(tb testing.TB) func(int) { return tenantsLoad(tb, 1, 1) }, 4},
		{"8Tenants", func(tb testing.TB) func(int) { return tenantsLoad(tb, 8, 2) }, 4},
		{"16Tenants", func(tb testing.TB) func(int) { return tenantsLoad(tb, 16, 2) }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drive := tc.load(t)
			got := testing.AllocsPerRun(1, func() { drive(trips) }) / trips
			t.Logf("%.3f allocs per round trip", got)
			if got > tc.ceiling {
				t.Errorf("%.3f allocs per round trip, over the ceiling of %v", got, tc.ceiling)
			}
		})
	}
}
