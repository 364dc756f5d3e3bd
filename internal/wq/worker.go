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
// them writes to the socket: results and pongs are encoded onto the stage,
// and the connection's one writer goroutine puts the stage on the wire, each
// write armed with wire.WriteTimeout. The reader wakes the writer when it is
// about to block on the socket, so the results of every frame one read
// brought in share one write; a timed result or a pong wakes it at once. A
// write stuck on a peer that stopped reading never stops the reader.
type workerConn struct {
	ctx   context.Context
	cfg   WorkerConfig
	conn  net.Conn
	wake  chan struct{}  // capacity 1: the stage has frames for the writer
	timed sync.WaitGroup // timed attempts not yet reported

	mu    sync.Mutex
	stage []byte // encoded frames the writer has yet to take
	werr  error  // the failed write that closed conn
}

// runWorkerConn speaks the worker side of the protocol over an established
// connection. It takes ownership of conn and closes it on return.
func runWorkerConn(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	wc := &workerConn{cfg: cfg.withDefaults(), conn: conn, wake: make(chan struct{}, 1)}
	if err := wc.put(&Message{Type: MsgRegister, Capacity: wc.cfg.Capacity}, true); err != nil {
		return fmt.Errorf("wq: worker register: %w", err)
	}
	var endAttempts context.CancelFunc
	wc.ctx, endAttempts = context.WithCancel(ctx)
	written := make(chan struct{})
	go wc.writer(written)
	// On return (shutdown, hangup, error or cancel) the timed attempts end
	// unreported, then the writer writes what is staged, then the
	// connection closes.
	defer func() {
		endAttempts()
		wc.timed.Wait()
		close(wc.wake)
		<-written
	}()

	mr := newMsgReader(conn)
	var m Message
	staged := false // results staged since the writer was last woken
	for first := true; ; first = false {
		if staged && !mr.fr.Buffered() {
			wc.kick()
			staged = false
		}
		if err := mr.next(&m); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if werr := wc.writeErr(); werr != nil {
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
			if err := wc.put(&res, false); err != nil {
				return fmt.Errorf("wq: worker result: %w", err)
			}
			staged = true
		case MsgPing:
			// Liveness probe: answer at once, so the manager's sweeper keeps
			// counting this worker as alive even while long tasks run.
			_ = wc.put(&Message{Type: MsgPong}, true)
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("wq: worker received unexpected frame type %d", m.Type)
		}
	}
}

// put encodes m onto the stage and, with now, wakes the writer.
func (wc *workerConn) put(m *Message, now bool) error {
	wc.mu.Lock()
	stage, err := appendMessage(wc.stage, m)
	wc.stage = stage
	wc.mu.Unlock()
	if err == nil && now {
		wc.kick()
	}
	return err
}

// kick wakes the writer, or leaves it the wake it has not yet taken.
func (wc *workerConn) kick() {
	select {
	case wc.wake <- struct{}{}:
	default:
	}
}

func (wc *workerConn) writeErr() error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.werr
}

// writer writes the stage each time it is woken until wake is closed, then
// once more. The stage and the buffer being written swap places, so the
// writer holds the lock only for the swap.
func (wc *workerConn) writer(done chan<- struct{}) {
	defer close(done)
	var buf []byte
	for range wc.wake {
		buf = wc.write(buf)
	}
	wc.write(buf)
}

// write swaps spare, emptied, for the stage and writes what the stage held,
// which it returns as the next spare. A failed write closes the connection,
// which ends the reader; the frames staged after it are dropped.
func (wc *workerConn) write(spare []byte) []byte {
	wc.mu.Lock()
	buf := wc.stage
	wc.stage = spare[:0]
	failed := wc.werr != nil
	wc.mu.Unlock()
	if len(buf) == 0 || failed {
		return buf
	}
	err := wc.conn.SetWriteDeadline(time.Now().Add(wire.WriteTimeout))
	if err == nil {
		_, err = wc.conn.Write(buf)
	}
	if err != nil {
		wc.mu.Lock()
		wc.werr = err
		wc.mu.Unlock()
		wc.conn.Close()
	}
	return buf
}

// sleepThenReport sleeps out a timed attempt's wall time, then stages its
// result and wakes the writer. A cancelled ctx ends it at once with nothing
// to report: the attempt did not run its course.
func (wc *workerConn) sleepThenReport(res Message, wall time.Duration) {
	defer wc.timed.Done()
	timer := time.NewTimer(wall)
	defer timer.Stop()
	select {
	case <-timer.C:
		if err := wc.put(&res, true); err != nil {
			wc.conn.Close()
		}
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
