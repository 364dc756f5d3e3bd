package wire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Outbox is a connection's one outbound path. Senders encode frames onto its
// stage, an in-memory buffer, under its lock and wake its writer goroutine,
// which takes the whole stage and writes it in one write armed with
// WriteTimeout. No sender writes to the socket, so none blocks on a peer that
// stopped reading; only the stage's bound, MaxStage, makes a sender wait.
//
// A sender picks one of two wake verbs. Kick writes now: the writer takes the
// stage as soon as it runs. Commit is the group commit: the writer yields once
// before it takes the stage, so every goroutine already runnable stages
// behind the committed frame first, and a burst costs one write. With nothing
// else runnable the yield returns at once. A frame staged with no verb leaves
// with the next write.
type Outbox struct {
	conn   net.Conn
	wake   chan struct{} // capacity 1: a wake the writer has yet to take
	kicked atomic.Bool   // a Kick since the writer last woke: do not yield
	done   chan struct{} // closed when the writer returns
	writes atomic.Int64

	mu     sync.Mutex
	taken  sync.Cond // broadcast when the writer takes the stage or fails
	stage  []byte
	swaps  uint64 // stages the writer has taken
	err    error  // the failed write; nothing is written after it
	closed bool
}

// NewOutbox returns the outbox of conn and starts its writer, which runs
// until Close or a failed write.
func NewOutbox(conn net.Conn) *Outbox {
	o := &Outbox{conn: conn, wake: make(chan struct{}, 1), done: make(chan struct{})}
	o.taken.L = &o.mu
	go o.run()
	return o
}

// Stage locks the outbox and returns its stage for the caller to append
// frames to; Put hands it back and unlocks. The two always come in a pair.
func (o *Outbox) Stage() []byte {
	o.mu.Lock()
	return o.stage
}

// Put stores stage, what Stage returned with the caller's frames appended,
// and unlocks the outbox. A stage that has reached MaxStage wakes the writer,
// and Put waits for the writer to take it: at most WriteTimeout, since a
// failed write releases the waiters. After a failed write or Close the frames
// are dropped, and Put returns the write's error or net.ErrClosed.
func (o *Outbox) Put(stage []byte) error {
	defer o.mu.Unlock()
	if o.err != nil || o.closed {
		o.stage = stage[:0]
		if o.err != nil {
			return o.err
		}
		return net.ErrClosed
	}
	o.stage = stage
	if len(stage) >= MaxStage {
		o.Kick()
		for swaps := o.swaps; o.swaps == swaps && o.err == nil; {
			o.taken.Wait()
		}
	}
	return o.err
}

// Kick wakes the writer to write the stage now.
func (o *Outbox) Kick() {
	o.kicked.Store(true)
	o.Commit()
}

// Commit wakes the writer to write the stage once every goroutine already
// runnable has had its turn to stage behind it.
func (o *Outbox) Commit() {
	select {
	case o.wake <- struct{}{}:
	default: // the writer has a wake it has not taken
	}
}

// Err returns the failed write, if any.
func (o *Outbox) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// Writes returns how many writes the writer has made to the connection.
func (o *Outbox) Writes() int64 { return o.writes.Load() }

// Close writes what is staged, stops the writer and returns the failed
// write, if any. It does not close the connection. Close is idempotent.
func (o *Outbox) Close() error {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.Kick()
	<-o.done
	return o.Err()
}

// run is the writer. The stage and the buffer it last wrote swap places, so
// the lock is held only for the swap. A failed write closes the connection,
// which ends its reader, and stops the writer.
func (o *Outbox) run() {
	defer close(o.done)
	var spare []byte
	for range o.wake {
		if !o.kicked.Swap(false) {
			runtime.Gosched()
		}
		o.mu.Lock()
		buf, closed := o.stage, o.closed
		o.stage, o.swaps = spare[:0], o.swaps+1
		o.taken.Broadcast()
		o.mu.Unlock()
		if len(buf) > 0 {
			o.writes.Add(1)
			err := o.conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
			if err == nil {
				_, err = o.conn.Write(buf)
			}
			if err != nil {
				o.mu.Lock()
				o.err, o.stage = err, nil
				o.taken.Broadcast()
				o.mu.Unlock()
				o.conn.Close()
				return
			}
		}
		if closed {
			return
		}
		spare = buf
	}
}
