// Command allocbench is the load generator for the allocator service: it
// dials an allocd (or spins up an in-process server when -addr is empty),
// registers a fleet of tenants with several connections each, and streams
// the synthetic scheduler loop — allocate, escalate through retries until
// the task's peak fits, observe — as fast as the service answers, printing
// sustained allocations/sec and the per-tenant counters at the end.
//
//	allocbench -tenants 8 -conns 2 -tasks 5000                # in-process
//	allocbench -addr 127.0.0.1:9200 -tenants 8 -tasks 5000    # against allocd
//	allocbench -tenants 1 -conns 1 -pipeline 64 -tasks 100000 # deep pipeline
//	allocbench -tenants 1 -conns 1 -batch 32 -tasks 100000    # batched allocates
//
// -pipeline N drives each connection with N concurrent task streams, so up
// to N calls are in flight on one socket and the group commit on the
// connection's outbox collapses them into few syscalls. -batch N requests
// predictions in AllocateBatch chunks of N, the cheapest way to saturate the
// wire from a single goroutine. An observe wakes no writer: it leaves with
// the next call, batch kick or Close on its connection, and each
// connection's final Stats call is the barrier that has every observe
// applied.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "", "allocd address (empty = run an in-process server)")
		tenants    = flag.Int("tenants", 8, "concurrent tenants")
		conns      = flag.Int("conns", 2, "connections per tenant")
		tasks      = flag.Int("tasks", 5000, "tasks per connection")
		algName    = flag.String("algorithm", string(allocator.Exhaustive), "allocation algorithm for new tenants")
		seed       = flag.Uint64("seed", 42, "base random seed")
		maxRecords = flag.Int("max-records", 4096, "in-process server record ceiling (ignored with -addr)")
		pipeline   = flag.Int("pipeline", 1, "concurrent task streams per connection (pipeline depth)")
		batch      = flag.Int("batch", 1, "request allocations in AllocateBatch chunks of this size")
	)
	flag.Parse()
	// A count below 1 would run nothing, or nothing per stream, and still
	// print a rate; refuse it by name.
	for _, f := range []struct {
		name string
		v    int
	}{{"tenants", *tenants}, {"conns", *conns}, {"tasks", *tasks}, {"pipeline", *pipeline}, {"batch", *batch}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "allocbench: -%s must be at least 1, got %d\n", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

	if _, err := allocator.ParseName(*algName); err != nil {
		fatal(err)
	}

	target := *addr
	if target == "" {
		s := serve.NewServer(serve.WithMaxRecords(*maxRecords))
		bound, err := s.Listen("127.0.0.1:0")
		fatalIf(err)
		defer s.Close()
		target = bound
		fmt.Printf("allocbench: in-process server on %s\n", bound)
	}

	var (
		wg         sync.WaitGroup
		allocs     atomic.Int64 // allocate round-trips served
		retries    atomic.Int64
		firstErr   atomic.Value
		totalConns = *tenants * *conns
	)
	start := time.Now()
	for ti := 0; ti < *tenants; ti++ {
		tenant := fmt.Sprintf("bench-%02d", ti)
		for ci := 0; ci < *conns; ci++ {
			wg.Add(1)
			go func(tenant string, ti, ci int) {
				defer wg.Done()
				window := 2 * *pipeline * *batch
				if window < 8 {
					window = 8
				}
				c, err := serve.Dial(target, tenant, *algName, *seed+uint64(ti),
					serve.WithPipelineWindow(window))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				defer c.Close()
				// -pipeline splits this connection's task budget across
				// concurrent streams; every stream's calls interleave on the
				// one socket and group-commit into shared syscalls.
				var pwg sync.WaitGroup
				per := (*tasks + *pipeline - 1) / *pipeline
				for p := 0; p < *pipeline; p++ {
					lo, hi := p*per, (p+1)*per
					if hi > *tasks {
						hi = *tasks
					}
					if lo >= hi {
						break
					}
					pwg.Add(1)
					go func(p, lo, hi int) {
						defer pwg.Done()
						drive := rand.New(rand.NewPCG(*seed+uint64(ti), uint64(ci*1000+p)))
						if err := runStream(c, drive, ci, lo, hi, *batch, &allocs, &retries); err != nil {
							firstErr.CompareAndSwap(nil, err)
						}
					}(p, lo, hi)
				}
				pwg.Wait()
				if _, err := c.Stats(); err != nil { // barrier: all observes applied
					firstErr.CompareAndSwap(nil, err)
				}
			}(tenant, ti, ci)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		fatal(err)
	}

	n := allocs.Load()
	fmt.Printf("allocbench: %d allocations (+%d retries) across %d tenants x %d conns in %s\n",
		n, retries.Load(), *tenants, *conns, elapsed.Round(time.Millisecond))
	fmt.Printf("allocbench: %.0f allocs/sec sustained over %d connections\n",
		float64(n)/elapsed.Seconds(), totalConns)

	// Final per-tenant counters, fetched over a fresh connection per tenant.
	rows := make([]string, 0, *tenants)
	for ti := 0; ti < *tenants; ti++ {
		tenant := fmt.Sprintf("bench-%02d", ti)
		c, err := serve.Dial(target, tenant, *algName, 0)
		if err != nil {
			continue
		}
		if st, err := c.Stats(); err == nil {
			rows = append(rows, fmt.Sprintf("  %s: allocates=%d retries=%d observes=%d decays=%d records=%d",
				st.Tenant, st.Allocates, st.Retries, st.Observes, st.Decays, st.Records))
		}
		c.Close()
	}
	if len(rows) > 0 {
		fmt.Println("allocbench: tenant counters:")
		fmt.Println(strings.Join(rows, "\n"))
	}
}

// runStream drives the synthetic scheduler loop — allocate (singly or in
// AllocateBatch chunks), escalate through retries until the task's peak
// fits, observe — over tasks [lo, hi) of connection ci.
func runStream(c *serve.Client, drive *rand.Rand, ci, lo, hi, batch int, allocs, retries *atomic.Int64) error {
	tasks := hi - lo
	ids := make([]int, 0, batch)
	peaks := make([]resources.Vector, 0, batch)
	vecs := make([]resources.Vector, 0, batch)
	for done := 0; done < tasks; done += batch {
		n := batch
		if done+n > tasks {
			n = tasks - done
		}
		// Batches are per category (AllocateBatch takes one); alternate
		// chunk by chunk so both categories keep learning.
		cat := [2]string{"preproc", "fit"}[(lo+done)%2]
		ids, peaks = ids[:0], peaks[:0]
		for i := 0; i < n; i++ {
			ids = append(ids, ci*1_000_000+lo+done+i)
			peak := resources.New(
				1+3*drive.Float64(),
				200+3000*drive.Float64(),
				100+800*drive.Float64(),
				10+50*drive.Float64(),
			)
			if drive.Float64() < 0.3 {
				peak = peak.Scale(4)
			}
			peaks = append(peaks, peak)
		}
		var err error
		if batch > 1 {
			vecs, err = c.AllocateBatch(cat, ids, vecs)
			if err != nil {
				return err
			}
		} else {
			vecs = vecs[:0]
			v, err := c.Allocate(cat, ids[0])
			if err != nil {
				return err
			}
			vecs = append(vecs, v)
		}
		allocs.Add(int64(n))
		for i := 0; i < n; i++ {
			alloc, peak := vecs[i], peaks[i]
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
				var err error
				alloc, err = c.Retry(cat, ids[i], alloc, exceeded)
				if err != nil {
					return err
				}
				retries.Add(1)
			}
			if err := c.Observe(cat, ids[i], peak, 10+50*drive.Float64()); err != nil {
				return err
			}
		}
	}
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "allocbench:", err)
	os.Exit(1)
}
