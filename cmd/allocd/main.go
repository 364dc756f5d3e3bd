// Command allocd runs the multi-tenant allocator service: a long-lived TCP
// daemon that serves resource predictions to many independent workflows at
// once, each behind its own isolated allocator state. Clients speak the
// binary-frame protocol of internal/serve (register, then
// request/retry/observe/ping/stats frames) through serve.Client;
// cmd/allocbench is a ready-made load generator against it.
//
//	allocd -addr 127.0.0.1:9200 -max-records 4096 -tenant-ttl 1h &
//	allocbench -addr 127.0.0.1:9200 -tenants 8
//
// Record decay (-max-records) keeps every long-lived tenant's per-category
// memory bounded: a category is reset at the ceiling and rebuilt from its
// most recent observations. -tenant-ttl evicts tenants that have been
// disconnected and idle, bounding memory across tenant churn too. Ctrl-C or
// SIGTERM drains gracefully: connected clients get a drain frame and a grace
// period to finish, and allocd exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynalloc/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9200", "listen address")
		maxRecords = flag.Int("max-records", 4096, "per-category record ceiling before decay (0 = never decay)")
		window     = flag.Int("decay-window", 0, "observations replayed after a decay reset (0 = half the ceiling)")
		tenantTTL  = flag.Duration("tenant-ttl", time.Hour, "evict tenants idle and disconnected this long (0 = keep forever)")
		drain      = flag.Duration("drain-timeout", 5*time.Second, "grace period for connected clients on shutdown")
		statsEvery = flag.Duration("stats-interval", time.Minute, "print per-tenant counters this often (0 disables)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// Live profiling of the service hot paths, mirroring
		// harness.StartProfiles on the sim CLIs:
		//   go tool pprof http://<pprof-addr>/debug/pprof/profile?seconds=10
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "allocd: pprof:", err)
			}
		}()
		fmt.Printf("allocd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// Installed before the listening line, so a signal sent as soon as it
	// is printed already drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := serve.NewServer(
		serve.WithMaxRecords(*maxRecords),
		serve.WithDecayWindow(*window),
		serve.WithTenantTTL(*tenantTTL),
		serve.WithServerDrainTimeout(*drain),
	)
	bound, err := s.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocd:", err)
		os.Exit(1)
	}
	fmt.Printf("allocd listening on %s (max-records=%d tenant-ttl=%s)\n", bound, *maxRecords, *tenantTTL)

	if *statsEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					printStats(s)
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Println("allocd: draining...")
	s.Close()
	printStats(s)
	fmt.Printf("allocd: stopped (%d idle tenants evicted over the run)\n", s.TenantsEvicted())
}

func printStats(s *serve.Server) {
	stats := s.Stats()
	if len(stats) == 0 {
		fmt.Println("allocd: no tenants")
	}
	for _, st := range stats {
		fmt.Printf("allocd: tenant=%s conns=%d allocates=%d retries=%d observes=%d decays=%d categories=%d records=%d\n",
			st.Tenant, st.Connections, st.Allocates, st.Retries, st.Observes, st.Decays, st.Categories, st.Records)
	}
	if n := s.DecodeErrors(); n > 0 {
		fmt.Printf("allocd: decode-errors=%d (malformed frames rejected; their connections were closed)\n", n)
	}
}
