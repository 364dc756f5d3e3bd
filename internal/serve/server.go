package serve

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// ErrServerClosed reports that the server was (or is being) closed.
var ErrServerClosed = errors.New("serve: server closed")

// Server is the multi-tenant allocator service: it accepts client
// connections, routes each connection's frames to its registered tenant, and
// keeps every tenant's allocator state isolated. It is safe for concurrent
// use; every connection is served by its own goroutine and tenants share no
// state with each other.
type Server struct {
	mu      sync.Mutex
	ln      net.Listener
	tenants map[string]*tenant
	conns   map[*serverConn]struct{}
	closed  bool

	// options
	maxRecords   int
	decayWindow  int
	tenantTTL    time.Duration
	drainTimeout time.Duration

	sweepDone chan struct{}
	sweepWG   sync.WaitGroup
	connWG    sync.WaitGroup

	tenantsEvicted int64
	decodeErrors   atomic.Int64
}

// serverConn is one client connection. All of its frame scratch (the decoded
// request, the reply under construction, the writer's encode buffer, the
// expanded exceeded-kind list) is connection-owned and reused across frames,
// so the steady-state request path performs no per-frame allocation.
type serverConn struct {
	conn   net.Conn
	out    *wire.Writer // locked per frame: drain frames arrive off-goroutine
	tenant *tenant

	// Scratch owned by the serveConn goroutine.
	req      Frame
	reply    Frame
	exceeded []resources.Kind
}

// send encodes f into the connection's write buffer. Replies are coalesced:
// the buffer is flushed by serveConn only when the read side is about to
// block, so N pipelined requests cost one write syscall. flush is forced only
// for a frame followed by a hangup: a drain, or an error before the hangup.
func (c *serverConn) send(f *Frame, flush bool) error {
	c.out.Lock()
	defer c.out.Unlock()
	frame, err := appendFrame(c.out.Buf(), f)
	if err == nil {
		err = c.out.Queue(frame)
	}
	if err == nil && flush {
		err = c.out.Flush()
	}
	return err
}

func (c *serverConn) flush() error {
	c.out.Lock()
	defer c.out.Unlock()
	return c.out.Flush()
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxRecords bounds per-category memory: once a tenant's category
// accumulates n records it is reset and rebuilt from the most recent
// DecayWindow observations. Zero (the default) disables decay, matching the
// embedded allocator exactly — required for byte-identical parity streams.
func WithMaxRecords(n int) ServerOption {
	return func(s *Server) { s.maxRecords = n }
}

// WithDecayWindow sets how many recent observations survive a decay reset.
// Zero defaults to half of MaxRecords.
func WithDecayWindow(n int) ServerOption {
	return func(s *Server) { s.decayWindow = n }
}

// WithTenantTTL enables tenant eviction: a tenant with no registered
// connections and no frame served for d is dropped entirely, freeing its
// record state. Zero (the default) keeps idle tenants forever so a client
// may reconnect and continue its learned stream.
func WithTenantTTL(d time.Duration) ServerOption {
	return func(s *Server) { s.tenantTTL = d }
}

// WithServerDrainTimeout bounds how long Close waits for in-flight
// connections after sending them drain frames. The default is 5s.
func WithServerDrainTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.drainTimeout = d }
}

// NewServer creates an allocator service.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		tenants:      make(map[string]*tenant),
		conns:        make(map[*serverConn]struct{}),
		drainTimeout: 5 * time.Second,
		sweepDone:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.maxRecords > 0 && s.decayWindow <= 0 {
		s.decayWindow = s.maxRecords / 2
	}
	if s.decayWindow >= s.maxRecords && s.maxRecords > 0 {
		// The replayed window must be strictly smaller than the trigger or
		// a decay would immediately re-trigger on the next observation.
		s.decayWindow = s.maxRecords - 1
	}
	return s
}

// Listen starts accepting clients on addr (e.g. "127.0.0.1:0") and returns
// the bound address. When a tenant TTL is configured the eviction sweeper
// starts alongside the accept loop.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	if s.tenantTTL > 0 {
		s.sweepWG.Add(1)
		go s.sweepLoop()
	}
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &serverConn{conn: conn, out: wire.NewWriter(conn)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Answer the registration with the drain it would have got a
			// moment earlier: a hangup alone reads as another protocol.
			_ = c.send(&Frame{Type: TypeDrain}, true)
			conn.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// sweepLoop evicts tenants that have been idle (no connections, no frames)
// past the TTL, bounding total memory across tenant churn the way the decay
// window bounds it within a tenant.
func (s *Server) sweepLoop() {
	defer s.sweepWG.Done()
	ticker := time.NewTicker(s.tenantTTL / 2)
	defer ticker.Stop()
	for {
		select {
		case <-s.sweepDone:
			return
		case <-ticker.C:
		}
		now := time.Now()
		s.mu.Lock()
		for name, t := range s.tenants {
			t.mu.Lock()
			idle := t.refs == 0 && now.Sub(t.lastActive) > s.tenantTTL
			t.mu.Unlock()
			if idle {
				delete(s.tenants, name)
				s.tenantsEvicted++
			}
		}
		s.mu.Unlock()
	}
}

// register resolves or creates the tenant for a connection's first frame.
// Re-registering an existing tenant attaches to its live state (algorithm
// and seed of the first registration win), so reconnecting clients continue
// the learned stream.
func (s *Server) register(f *Frame) (*tenant, error) {
	if f.Tenant == "" {
		return nil, fmt.Errorf("serve: register frame without tenant name")
	}
	algName := f.Algorithm
	if algName == "" {
		algName = string(allocator.Exhaustive)
	}
	alg, err := allocator.ParseName(algName)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	t, ok := s.tenants[f.Tenant]
	if !ok {
		t, err = newTenant(f.Tenant, alg, f.Seed, s.maxRecords, s.decayWindow)
		if err != nil {
			return nil, err
		}
		s.tenants[f.Tenant] = t
	}
	t.mu.Lock()
	t.refs++
	t.lastActive = time.Now()
	t.mu.Unlock()
	return t, nil
}

func (s *Server) serveConn(c *serverConn) {
	defer s.connWG.Done()
	defer c.conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		if c.tenant != nil {
			c.tenant.mu.Lock()
			c.tenant.refs--
			c.tenant.lastActive = time.Now()
			c.tenant.mu.Unlock()
		}
	}()

	fr := newFrameReader(c.conn)
	for {
		// Flush coalesced replies exactly when the reader is about to block:
		// while a pipelining client keeps complete frames buffered, replies
		// accumulate and go out in one write.
		if !fr.buffered() {
			if err := c.flush(); err != nil {
				return
			}
		}
		if err := fr.next(&c.req); err != nil {
			if c.tenant == nil {
				err = wire.AsMismatch(err)
			}
			var ferr *wire.FrameError
			if errors.As(err, &ferr) {
				// A malformed frame poisons the stream (framing can no
				// longer be trusted): count it, tell the client why, and
				// hang up.
				s.decodeErrors.Add(1)
				c.reply = Frame{Type: TypeError, Error: ferr.Error()}
				_ = c.send(&c.reply, true)
			}
			return
		}
		f := &c.req
		if c.tenant == nil {
			// The first frame must register a tenant; anything else is a
			// protocol error the client can read before we hang up.
			if f.Type != TypeRegister {
				c.reply = Frame{Type: TypeError, Seq: f.Seq,
					Error: fmt.Sprintf("first frame must be a register frame, got type %d", f.Type)}
				_ = c.send(&c.reply, true)
				return
			}
			t, err := s.register(f)
			if err != nil {
				c.reply = Frame{Type: TypeError, Seq: f.Seq, Error: err.Error()}
				_ = c.send(&c.reply, true)
				return
			}
			c.tenant = t
			c.reply = Frame{Type: TypeAck, Seq: f.Seq, Tenant: t.name, Algorithm: string(t.alg)}
			if err := c.send(&c.reply, false); err != nil {
				return
			}
			continue
		}
		if err := s.handleFrame(c, f); err != nil {
			return
		}
	}
}

// handleFrame serves one post-registration frame, reusing the connection's
// reply and exceeded scratch. A returned error means the connection is
// beyond saving (write failed); protocol-level problems are reported to the
// client as error frames instead.
func (s *Server) handleFrame(c *serverConn, f *Frame) error {
	t := c.tenant
	switch f.Type {
	case TypeRequest:
		c.reply = Frame{Type: TypeAlloc, Seq: f.Seq, Alloc: t.allocate(f.Category, f.TaskID)}
		return c.send(&c.reply, false)
	case TypeRetry:
		c.exceeded = f.Exceeded.AppendKinds(c.exceeded[:0])
		c.reply = Frame{Type: TypeAlloc, Seq: f.Seq, Alloc: t.retry(f.Category, f.TaskID, f.Prev, c.exceeded)}
		return c.send(&c.reply, false)
	case TypeObserve:
		t.observe(f.Category, f.TaskID, f.Peak, f.Runtime)
		return nil
	case TypePing:
		c.reply = Frame{Type: TypePong, Seq: f.Seq}
		return c.send(&c.reply, false)
	case TypeStats:
		c.reply = Frame{Type: TypeStats, Seq: f.Seq, Stats: t.snapshot()}
		return c.send(&c.reply, false)
	case TypeRegister:
		c.reply = Frame{Type: TypeError, Seq: f.Seq, Error: "connection already registered"}
		return c.send(&c.reply, false)
	default:
		c.reply = Frame{Type: TypeError, Seq: f.Seq, Error: fmt.Sprintf("unexpected frame type %d", f.Type)}
		return c.send(&c.reply, false)
	}
}

// Tenants returns the number of live tenants.
func (s *Server) Tenants() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// TenantsEvicted returns how many idle tenants the TTL sweeper dropped.
func (s *Server) TenantsEvicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantsEvicted
}

// DecodeErrors returns how many malformed frames the server has rejected
// across all connections. A nonzero count means some peer is sending
// garbage or speaking another protocol: each such frame is answered with an
// error frame, counted here, and its connection closed (past a malformed
// frame the stream's framing can no longer be trusted).
func (s *Server) DecodeErrors() int64 {
	return s.decodeErrors.Load()
}

// Stats returns a snapshot of every live tenant's counters, sorted by
// tenant name.
func (s *Server) Stats() []TenantStats {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	out := make([]TenantStats, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Close gracefully drains the service, mirroring wq.Manager.Close: stop
// accepting, tell every connected client to finish with a drain frame, wait
// for connections to hang up within the drain timeout, then force-close the
// stragglers. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	close(s.sweepDone)
	s.sweepWG.Wait()

	for _, c := range conns {
		// A failed drain write means the client is already gone; its
		// connection goroutine is unwinding on its own.
		drain := Frame{Type: TypeDrain}
		_ = c.send(&drain, true)
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.drainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
}
