// Command wq-worker runs one live worker: it connects to a wq-manager,
// advertises its capacity, answers the manager's heartbeat pings, and
// executes tasks under a virtual resource monitor until the manager shuts it
// down. With -reconnect the worker re-dials after a lost connection (a
// manager restart, or being declared lost by the heartbeat sweeper during a
// stall), which is how an opportunistic node rejoins the pool. A manager that
// speaks another wire protocol is not worth a second dial: the worker exits.
// SIGINT or SIGTERM stops it, abandoning the tasks it runs to the manager's
// requeue.
//
//	wq-worker -addr 127.0.0.1:9123 -cores 16 -memory 65536 -disk 65536 -reconnect 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
	"dynalloc/internal/wq"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9123", "manager address")
		cores     = flag.Float64("cores", 16, "advertised cores")
		memory    = flag.Float64("memory", 64*1024, "advertised memory (MB)")
		disk      = flag.Float64("disk", 64*1024, "advertised disk (MB)")
		timeScale = flag.Float64("timescale", 1e-3, "wall seconds per simulated task second")
		reconnect = flag.Int("reconnect", 0, "re-dial this many times after a lost connection")
		backoff   = flag.Duration("reconnect-wait", time.Second, "pause between reconnect attempts")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := wq.WorkerConfig{
		Capacity:  resources.New(*cores, *memory, *disk, resources.Unlimited),
		TimeScale: *timeScale,
	}
	fmt.Printf("worker connecting to %s (%v cores, %v MB memory, %v MB disk)\n",
		*addr, *cores, *memory, *disk)
	attempts := *reconnect
	for {
		err := wq.RunWorker(ctx, *addr, cfg)
		if err == nil || ctx.Err() != nil {
			break
		}
		if attempts <= 0 || errors.Is(err, wire.ErrProtocolMismatch) {
			fmt.Fprintln(os.Stderr, "wq-worker:", err)
			os.Exit(1)
		}
		attempts--
		fmt.Fprintf(os.Stderr, "wq-worker: %v; reconnecting in %s (%d attempts left)\n",
			err, *backoff, attempts+1)
		select {
		case <-time.After(*backoff):
		case <-ctx.Done():
		}
	}
	fmt.Println("worker shut down")
}
