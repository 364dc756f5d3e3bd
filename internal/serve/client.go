package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// ErrDraining reports that the server announced shutdown; no further frames
// will be answered on this connection.
var ErrDraining = errors.New("serve: server draining")

// defaultPipelineWindow is WithPipelineWindow's default.
const defaultPipelineWindow = 128

// Client is a connection to an allocator service, registered to one tenant.
// It is safe for concurrent use: calls carry sequence numbers and a reader
// goroutine routes each response to its waiting caller, so many goroutines
// can have requests in flight on the one connection.
//
// The wire path is built for pipelining. Waiting callers park on a
// fixed-size ring of reusable slots (the response sequence number encodes
// the slot index, so routing is an array lookup and a call allocates
// nothing), and frames are staged on the connection's wire.Outbox, whose
// writer goroutine does every write: concurrent calls group-commit into one
// net.Conn write, and an observe leaves with the next call, AllocateBatch
// kick or Close on its connection instead of paying its own syscall.
type Client struct {
	conn  net.Conn
	out   *wire.Outbox
	armed atomic.Int64 // calls in flight (armed slots); 1 means lockstep

	// Call routing. mu guards the slot ring and the terminal error.
	mu    sync.Mutex
	err   error // terminal error once the connection is dead
	done  chan struct{}
	slots []callSlot
	mask  uint64
	free  chan uint32 // indices of unarmed slots; doubles as the window limit
}

// callSlot is one in-flight call's parking spot. Slots are reused: seq is
// gen*window+index, so a slot's sequence numbers never repeat and a stale
// (already abandoned) response can be recognized and dropped.
type callSlot struct {
	seq   uint64
	state uint8 // slotFree, slotArmed, or slotDone
	resp  Frame
	ready chan struct{} // buffered(1); signaled on deposit
}

const (
	slotFree uint8 = iota
	slotArmed
	slotDone
)

// ClientOption configures a Client at Dial time.
type ClientOption func(*Client)

// WithPipelineWindow bounds how many calls may be in flight on the
// connection at once (rounded up to a power of two, minimum 2). Calls past
// the window block until a response frees a slot. The default is 128.
func WithPipelineWindow(n int) ClientOption {
	return func(c *Client) {
		w := 2
		for w < n {
			w *= 2
		}
		c.mask = uint64(w - 1)
	}
}

// Dial connects to an allocator service at addr and registers tenant with
// the given algorithm (empty = the service default) and seed. If the tenant
// already exists on the server, the connection attaches to its live state
// and algorithm/seed are ignored. A peer that does not answer the
// registration as an allocator service does returns wire.ErrProtocolMismatch.
func Dial(addr, tenant, algorithm string, seed uint64, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		out:  wire.NewOutbox(conn),
		done: make(chan struct{}),
		mask: defaultPipelineWindow - 1,
	}
	for _, opt := range opts {
		opt(c)
	}
	window := int(c.mask) + 1
	c.slots = make([]callSlot, window)
	c.free = make(chan uint32, window)
	for i := range c.slots {
		c.slots[i].ready = make(chan struct{}, 1)
		// Generations start at 1 so no live call ever uses seq 0, the seq an
		// error answering a frame that carries none (a register) echoes.
		c.slots[i].seq = uint64(i)
		c.free <- uint32(i)
	}

	// Register synchronously before the reader goroutine exists: the ack is
	// the first frame the server sends, so a plain read is race-free here.
	fr := newFrameReader(conn)
	reg := Frame{Type: TypeRegister, Seq: 0, Tenant: tenant, Algorithm: algorithm, Seed: seed}
	if err := c.send(&reg, true); err != nil {
		return nil, c.refused(fmt.Errorf("serve: register: %w", err))
	}
	var ack Frame
	if err := fr.next(&ack); err != nil {
		if err == io.EOF {
			// An allocator service answers every registration, with an ack,
			// an error or a drain; a wq manager hangs up instead.
			err = fmt.Errorf("%w: the peer hung up on the registration", wire.ErrProtocolMismatch)
		}
		return nil, c.refused(fmt.Errorf("serve: register: %w", wire.AsMismatch(err)))
	}
	switch ack.Type {
	case TypeAck:
	case TypeError:
		return nil, c.refused(fmt.Errorf("serve: register rejected: %s", ack.Error))
	case TypeDrain:
		return nil, c.refused(ErrDraining)
	default:
		return nil, c.refused(fmt.Errorf("serve: register: %w: answered with a type %d frame", wire.ErrProtocolMismatch, ack.Type))
	}
	go c.readLoop(fr)
	return c, nil
}

// readLoop routes response frames to waiting callers until the connection
// dies or the server drains.
func (c *Client) readLoop(fr frameReader) {
	var f Frame
	for {
		if err := fr.next(&f); err != nil {
			c.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		if f.Type == TypeDrain {
			c.fail(ErrDraining)
			return
		}
		c.mu.Lock()
		slot := &c.slots[f.Seq&c.mask]
		if slot.state == slotArmed && slot.seq == f.Seq {
			slot.resp = f
			slot.state = slotDone
			slot.ready <- struct{}{}
		}
		c.mu.Unlock()
	}
}

// fail marks the client dead, wakes every pending caller and hangs up; the
// outbox's writer ends with the connection.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	c.mu.Unlock()
	c.conn.Close()
	c.out.Close()
}

// refused fails a connection Dial gives up on and returns err.
func (c *Client) refused(err error) error {
	c.fail(err)
	return err
}

// terminal reports the error a failed operation should surface: the
// connection's terminal error when one is set (so every caller sees the
// same ErrDraining / connection-lost cause rather than a raw net error from
// a closed socket), otherwise the triggering error itself.
func (c *Client) terminal(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return err
}

// send stages f on the outbox. A frame that expects a reply wakes the
// writer: a call that is the only one in flight kicks it, since nothing can
// ride with it and the yield measurably costs a lockstep client (DESIGN.md
// §15); one that has others in flight commits, so the writer yields first and
// every call already runnable shares its write. A one-way observe or a batch
// frame wakes nobody; it leaves with the next write on the connection. A
// frame the wire cannot carry is refused before anything is staged; once the
// outbox has failed, the client is failed so all callers agree on the
// terminal error.
func (c *Client) send(f *Frame, reply bool) error {
	stage, err := appendFrame(c.out.Stage(), f)
	if werr := c.out.Put(stage); werr != nil {
		c.fail(werr)
		return c.terminal(werr)
	}
	if err != nil || !reply {
		return err
	}
	if c.armed.Load() <= 1 {
		c.out.Kick()
	} else {
		c.out.Commit()
	}
	return nil
}

// acquireSlot blocks until an in-flight slot is free, or the client dies.
func (c *Client) acquireSlot() (uint32, error) {
	select {
	case idx := <-c.free:
		return idx, nil
	case <-c.done:
		return 0, c.terminal(nil)
	}
}

// armSlot claims slot idx for a new call and returns the sequence number a
// response must echo to land in it.
func (c *Client) armSlot(idx uint32) uint64 {
	window := c.mask + 1
	c.armed.Add(1)
	c.mu.Lock()
	slot := &c.slots[idx]
	slot.seq += window // next generation for this slot; stays ≡ idx (mod window)
	slot.state = slotArmed
	seq := slot.seq
	c.mu.Unlock()
	return seq
}

// await parks until slot idx has a response or the client dies, then frees
// the slot.
func (c *Client) await(idx uint32) (Frame, error) {
	slot := &c.slots[idx]
	select {
	case <-slot.ready:
		c.mu.Lock()
		resp := slot.resp
		slot.state = slotFree
		c.mu.Unlock()
		c.armed.Add(-1)
		c.free <- idx
		if resp.Type == TypeError {
			return Frame{}, fmt.Errorf("serve: %s", resp.Error)
		}
		return resp, nil
	case <-c.done:
		c.mu.Lock()
		slot.state = slotFree
		// A response may have raced the failure; clear its signal so the
		// recycled slot starts clean.
		select {
		case <-slot.ready:
		default:
		}
		err := c.err
		c.mu.Unlock()
		c.armed.Add(-1)
		c.free <- idx
		return Frame{}, err
	}
}

// releaseSlot abandons an armed slot whose request never made it out.
func (c *Client) releaseSlot(idx uint32) {
	c.armed.Add(-1)
	c.mu.Lock()
	c.slots[idx].state = slotFree
	select {
	case <-c.slots[idx].ready:
	default:
	}
	c.mu.Unlock()
	c.free <- idx
}

// call sends a frame stamped with a fresh Seq and waits for its response.
func (c *Client) call(f Frame) (Frame, error) {
	idx, err := c.acquireSlot()
	if err != nil {
		return Frame{}, err
	}
	f.Seq = c.armSlot(idx)
	if err := c.send(&f, true); err != nil {
		c.releaseSlot(idx)
		return Frame{}, err
	}
	return c.await(idx)
}

// Allocate requests a first-attempt prediction for a task.
func (c *Client) Allocate(category string, taskID int) (resources.Vector, error) {
	resp, err := c.call(Frame{Type: TypeRequest, Category: category, TaskID: taskID})
	if err != nil {
		return resources.Vector{}, err
	}
	return resp.Alloc, nil
}

// AllocateBatch requests first-attempt predictions for many tasks in one
// coalesced write, pipelining up to the client's window without waiting for
// individual responses. Results are appended to out (which may be nil) in
// taskIDs order. On error the successfully collected prefix is returned
// along with the first error.
func (c *Client) AllocateBatch(category string, taskIDs []int, out []resources.Vector) ([]resources.Vector, error) {
	if len(out) > 0 {
		out = out[:0]
	}
	if len(taskIDs) == 0 {
		return out, nil
	}
	pending := make([]uint32, 0, min(len(taskIDs), int(c.mask)+1))
	collect := func() error {
		idx := pending[0]
		pending = pending[:copy(pending, pending[1:])]
		resp, err := c.await(idx)
		if err != nil {
			return err
		}
		out = append(out, resp.Alloc)
		return nil
	}
	var firstErr error
	for _, id := range taskIDs {
		var idx uint32
		for {
			select {
			case idx = <-c.free:
			default:
				// No slot free. Drain one of our own outstanding requests —
				// kicking the writer first so its response can exist —
				// rather than blocking on other callers' slots (two
				// pipelining callers waiting on each other would deadlock).
				if len(pending) > 0 {
					c.out.Kick()
					if err := collect(); err != nil {
						firstErr = err
						break
					}
					continue
				}
				var err error
				if idx, err = c.acquireSlot(); err != nil {
					firstErr = err
					break
				}
			}
			break
		}
		if firstErr != nil {
			break
		}
		f := Frame{Type: TypeRequest, Category: category, TaskID: id, Seq: c.armSlot(idx)}
		if err := c.send(&f, false); err != nil {
			c.releaseSlot(idx)
			firstErr = err
			break
		}
		pending = append(pending, idx)
	}
	if len(pending) > 0 {
		c.out.Kick()
		for len(pending) > 0 {
			if err := collect(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return out, firstErr
}

// Retry requests an escalated prediction after an attempt that exhausted the
// given resource kinds under allocation prev. A kind outside
// resources.NumKinds is refused before anything is sent.
func (c *Client) Retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) (resources.Vector, error) {
	resp, err := c.call(Frame{Type: TypeRetry, Category: category, TaskID: taskID, Prev: prev,
		Exceeded: resources.KindSetOf(exceeded)})
	if err != nil {
		return resources.Vector{}, err
	}
	return resp.Alloc, nil
}

// Observe reports a completed task's peak usage and runtime. It is one-way:
// the server applies observations in connection order, so a later Allocate
// on this client is guaranteed to see it. An observe wakes no writer: it
// leaves with the next call, AllocateBatch kick or Close on this
// connection. After the connection has failed, Observe returns the same
// terminal error as every other method.
func (c *Client) Observe(category string, taskID int, peak resources.Vector, runtime float64) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	f := Frame{Type: TypeObserve, Category: category, TaskID: taskID, Peak: peak, Runtime: runtime}
	return c.send(&f, false)
}

// Ping round-trips a liveness frame.
func (c *Client) Ping() error {
	_, err := c.call(Frame{Type: TypePing})
	return err
}

// Stats fetches the tenant's counter snapshot. Because it round-trips after
// any previously sent observes on this connection, it doubles as a barrier:
// the returned counts include everything this client sent before the call.
func (c *Client) Stats() (TenantStats, error) {
	resp, err := c.call(Frame{Type: TypeStats})
	if err != nil {
		return TenantStats{}, err
	}
	return resp.Stats, nil
}

// Close writes whatever is staged, observes included, and hangs up.
// Pending calls fail with a connection-lost error.
func (c *Client) Close() error {
	err := c.out.Close()
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	return err
}
