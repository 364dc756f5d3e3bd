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
// gets wire.ErrProtocolMismatch. Attempts run concurrently; the manager is
// responsible for not over-committing the advertised capacity (as in Work
// Queue). When the manager shuts it down, the results of the instant attempts
// its last frames started are written before the worker hangs up; attempts
// still sleeping are abandoned to the manager's requeue.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("wq: worker dial: %w", err)
	}
	return runWorkerConn(ctx, conn, cfg)
}

// workerConn is one worker-side connection. Its reader goroutine decodes the
// manager's frames and settles every attempt whose scaled wall time is zero
// where it stands; a timed attempt sleeps on a goroutine of its own. None of
// them writes to the socket: results and pongs are staged on the connection's
// wire.Outbox, whose writer puts them on the wire. The reader kicks the
// writer when it is about to block on the socket, so the results of every
// frame one read brought in share one write; a timed result or a pong kicks
// it at once. A write stuck on a peer that stopped reading never stops the
// reader.
type workerConn struct {
	ctx   context.Context
	cfg   WorkerConfig
	conn  net.Conn
	out   *wire.Outbox
	timed sync.WaitGroup // timed attempts not yet reported
}

// runWorkerConn speaks the worker side of the protocol over an established
// connection. It takes ownership of conn and closes it on return.
func runWorkerConn(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	wc := &workerConn{cfg: cfg.withDefaults(), conn: conn, out: wire.NewOutbox(conn)}
	var endAttempts context.CancelFunc
	wc.ctx, endAttempts = context.WithCancel(ctx)
	// On return (shutdown, hangup, error or cancel) the timed attempts end
	// unreported, then the outbox writes what is staged, then the
	// connection closes.
	defer func() {
		endAttempts()
		wc.timed.Wait()
		wc.out.Close()
	}()
	if err := post(wc.out, &Message{Type: MsgRegister, Capacity: wc.cfg.Capacity}); err != nil {
		return fmt.Errorf("wq: worker register: %w", err)
	}
	wc.out.Kick()

	mr := newMsgReader(conn)
	var m Message
	staged := false // results staged since the writer was last kicked
	for first := true; ; first = false {
		if staged && !mr.fr.Buffered() {
			wc.out.Kick()
			staged = false
		}
		if err := mr.next(&m); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if werr := wc.out.Err(); werr != nil {
				return fmt.Errorf("wq: worker write: %w", werr)
			}
			if err == io.EOF {
				// The manager hung up cleanly.
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
			res, wall := executeTask(wc.cfg, &m)
			if wall > 0 {
				wc.timed.Add(1)
				go wc.sleepThenReport(res, wall)
				continue
			}
			if err := post(wc.out, &res); err != nil {
				return fmt.Errorf("wq: worker result: %w", err)
			}
			staged = true
		case MsgPing:
			// Liveness probe: answer at once, so the manager's sweeper keeps
			// counting this worker as alive even while long tasks run.
			if post(wc.out, &Message{Type: MsgPong}) == nil {
				wc.out.Kick()
			}
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("wq: worker received unexpected frame type %d", m.Type)
		}
	}
}

// sleepThenReport sleeps out a timed attempt's wall time, then stages its
// result and kicks the writer. A cancelled ctx ends it at once with nothing
// to report: the attempt did not run its course.
func (wc *workerConn) sleepThenReport(res Message, wall time.Duration) {
	defer wc.timed.Done()
	timer := time.NewTimer(wall)
	defer timer.Stop()
	select {
	case <-timer.C:
		if err := post(wc.out, &res); err != nil {
			wc.conn.Close()
			return
		}
		wc.out.Kick()
	case <-wc.ctx.Done():
	}
}

// executeTask virtually executes one task attempt: the resource monitor
// decides when (and whether) the attempt is killed, and the result reports
// it once the scaled duration has passed, the wall time returned.
func executeTask(cfg WorkerConfig, m *Message) (Message, time.Duration) {
	duration, exceeded := sim.EvaluateAttempt(cfg.Model, m.Peak, m.Runtime, m.Alloc)
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
	return out, time.Duration(duration * cfg.TimeScale * float64(time.Second))
}
