package wq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/wire"
)

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// Capacity the worker advertises. Zero means the paper worker.
	Capacity resources.Vector
	// TimeScale converts simulated task seconds into wall-clock sleep:
	// wall = simulated * TimeScale. Zero means 1e-4 (0.1 ms per simulated
	// second), which keeps integration runs fast while preserving ordering.
	TimeScale float64
	// Model is the consumption profile the virtual monitor enforces.
	Model sim.ConsumptionModel
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Capacity.IsZero() {
		c.Capacity = resources.PaperWorker()
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1e-4
	}
	return c
}

// RunWorker connects to the manager at addr, registers, and executes tasks
// until the manager shuts it down, the connection drops, or ctx is
// cancelled. A manager whose first bytes are not a frame of this protocol
// gets wire.ErrProtocolMismatch. Tasks run concurrently; the manager is
// responsible for not over-committing the advertised capacity (as in Work
// Queue).
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("wq: worker dial: %w", err)
	}
	return runWorkerConn(ctx, conn, cfg)
}

// workerConn is one worker-side connection: its reused frame writer and the
// pool of executor goroutines running its tasks. Executors are spawned on
// demand (when a task arrives and none is idle) and reused for the life of
// the connection, so steady-state task spawning costs a channel handoff
// rather than a goroutine launch.
type workerConn struct {
	ctx    context.Context
	cfg    WorkerConfig
	conn   net.Conn
	out    *wire.Writer
	taskCh chan Message
	wg     sync.WaitGroup
}

// runWorkerConn speaks the worker side of the protocol over an established
// connection. It takes ownership of conn and closes it on return.
func runWorkerConn(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	wc := &workerConn{
		ctx: ctx, cfg: cfg.withDefaults(), conn: conn,
		out: wire.NewWriter(conn), taskCh: make(chan Message),
	}
	if err := send(wc.out, &Message{Type: MsgRegister, Capacity: wc.cfg.Capacity}, true); err != nil {
		return fmt.Errorf("wq: worker register: %w", err)
	}

	// On return: stop the executors, then wait for in-flight tasks to report
	// (the connection stays open until the outermost defer).
	defer wc.wg.Wait()
	defer close(wc.taskCh)
	mr := newMsgReader(conn)
	var m Message
	for first := true; ; first = false {
		if err := mr.next(&m); err != nil {
			if ctx.Err() != nil || err == io.EOF {
				// Cancelled, or the manager hung up cleanly.
				return nil
			}
			if first {
				err = wire.AsMismatch(err)
			}
			var ferr *wire.FrameError
			if errors.As(err, &ferr) {
				return fmt.Errorf("wq: worker decoding frame: %w", err)
			}
			return fmt.Errorf("wq: worker connection: %w", err)
		}
		switch m.Type {
		case MsgTask:
			// Hand the task to an idle executor; grow the pool only when all
			// are busy. The channel is unbuffered so a task is never parked
			// behind a long-running one while another executor sits idle.
			select {
			case wc.taskCh <- m:
			default:
				wc.wg.Add(1)
				go wc.executor()
				wc.taskCh <- m
			}
		case MsgPing:
			// Liveness probe: answer immediately so the manager's sweeper
			// keeps counting this worker as alive even while long tasks run.
			if err := send(wc.out, &Message{Type: MsgPong}, true); err != nil && ctx.Err() == nil {
				return fmt.Errorf("wq: worker pong: %w", err)
			}
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("wq: worker received unexpected frame type %d", m.Type)
		}
	}
}

// executor runs task attempts from the connection's channel until it closes.
func (wc *workerConn) executor() {
	defer wc.wg.Done()
	for task := range wc.taskCh {
		res := executeTask(wc.ctx, wc.cfg, task)
		if err := send(wc.out, &res, true); err != nil && wc.ctx.Err() == nil {
			// The connection is gone; the manager will requeue.
			wc.conn.Close()
		}
	}
}

// executeTask virtually executes one task attempt: the resource monitor
// decides when (and whether) the attempt is killed, and the worker sleeps
// the scaled duration to model the elapsed run.
func executeTask(ctx context.Context, cfg WorkerConfig, m Message) Message {
	duration, exceeded := sim.EvaluateAttempt(cfg.Model, m.Peak, m.Runtime, m.Alloc)
	wall := time.Duration(duration * cfg.TimeScale * float64(time.Second))
	if wall > 0 {
		select {
		case <-time.After(wall):
		case <-ctx.Done():
		}
	}
	// The result names the task and says how the attempt ended; the manager
	// holds the category, allocation and consumption it dispatched.
	out := Message{
		Type:     MsgResult,
		TaskID:   m.TaskID,
		Duration: duration,
		Status:   StatusSuccess,
		Exceeded: resources.KindSetOf(exceeded),
	}
	if out.Exceeded != 0 {
		out.Status = StatusExhausted
	}
	return out
}
