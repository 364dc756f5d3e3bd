package serve

import (
	"errors"
	"fmt"
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
	// srv is the connection lifecycle: listener, readers, sweep tick, drain.
	srv *wire.Server

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	// options
	maxRecords   int
	decayWindow  int
	tenantTTL    time.Duration
	drainTimeout time.Duration

	tenantsEvicted int64
	decodeErrors   atomic.Int64
}

// serverConn is one registered client connection, served as a wire.Session
// by its reader goroutine. All of its frame scratch (the decoded request, the
// reply under construction, the expanded exceeded-kind list) is
// connection-owned and reused across frames, and replies are encoded onto the
// outbox's reused stage, so the steady-state request path performs no
// per-frame allocation.
type serverConn struct {
	*wire.Conn
	tenant *tenant

	// Scratch owned by the reader goroutine.
	req      Frame
	reply    Frame
	exceeded []resources.Kind
}

// post encodes f onto out's stage. Replies are written when the reader is
// about to block (Idle kicks the writer), so N pipelined requests cost one
// write; an error frame followed by the hangup leaves with the outbox's
// final write. A failed outbox's error comes before an encoding error.
func post(out *wire.Outbox, f *Frame) error {
	stage, err := appendFrame(out.Stage(), f)
	if perr := out.Put(stage); perr != nil {
		return perr
	}
	return err
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
		drainTimeout: 5 * time.Second,
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
	drain := wire.AppendHeader(nil, byte(TypeDrain)) // a whole frame: empty payload, length 0
	s.srv = wire.NewServer(protocol{s}, s.tenantTTL/2, s.drainTimeout, drain)
	return s
}

// Listen starts accepting clients on addr (e.g. "127.0.0.1:0") and returns
// the bound address. When a tenant TTL is configured the eviction sweeper
// starts alongside the accept loop.
func (s *Server) Listen(addr string) (string, error) {
	bound, err := s.srv.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	return bound, nil
}

// protocol is the server's side of the client connections (wire.Handler).
type protocol struct{ *Server }

// Open registers the tenant the first frame names; a refusal is answered
// with an error frame before the hangup.
func (s protocol) Open(c *wire.Conn, typ byte, payload []byte) (wire.Session, error) {
	sc := &serverConn{Conn: c}
	f := &sc.req
	if err := (frameReader{c.In}).decode(typ, payload, f); err != nil {
		return nil, err
	}
	t, err := s.register(f)
	if err != nil {
		_ = post(c.Out, &Frame{Type: TypeError, Seq: f.Seq, Error: err.Error()})
		return nil, err
	}
	// The ack leaves when the reader is first about to block.
	sc.tenant, sc.reply = t, Frame{Type: TypeAck, Seq: f.Seq, Tenant: t.name, Algorithm: string(t.alg)}
	_ = post(c.Out, &sc.reply)
	return sc, nil
}

// Frame serves one post-registration frame.
func (c *serverConn) Frame(typ byte, payload []byte) error {
	if err := (frameReader{c.In}).decode(typ, payload, &c.req); err != nil {
		return err
	}
	return c.handleFrame(&c.req)
}

// Idle kicks the outbox's writer exactly when the reader is about to block:
// while a pipelining client keeps complete frames buffered, replies
// accumulate and go out in one write. The write is the writer's, so a client
// that stopped reading holds the writer, never the reader.
func (c *serverConn) Idle() error {
	c.Out.Kick()
	return nil
}

// Closed counts a malformed frame, which poisons the stream, and tells the
// client why before the hangup; a registered connection lets go of its
// tenant, whose idle time starts now.
func (s protocol) Closed(c *wire.Conn, sess wire.Session, cause error) {
	var ferr *wire.FrameError
	if errors.As(cause, &ferr) {
		s.decodeErrors.Add(1)
		_ = post(c.Out, &Frame{Type: TypeError, Error: ferr.Error()})
	}
	if sc, ok := sess.(*serverConn); ok {
		sc.tenant.mu.Lock()
		sc.tenant.refs--
		sc.tenant.lastActive = time.Now()
		sc.tenant.mu.Unlock()
	}
}

// Sweep evicts tenants that have been idle (no connections, no frames) past
// the TTL, bounding total memory across tenant churn the way the decay
// window bounds it within a tenant.
func (s protocol) Sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, t := range s.tenants {
		t.mu.Lock()
		idle := t.refs == 0 && now.Sub(t.lastActive) > s.tenantTTL
		t.mu.Unlock()
		if idle {
			delete(s.tenants, name)
			s.tenantsEvicted++
		}
	}
}

// Drain refuses registrations from here on; every connection gets the drain
// frame next.
func (s protocol) Drain() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// register resolves or creates the tenant a connection's first frame names.
// Re-registering an existing tenant attaches to its live state (algorithm
// and seed of the first registration win), so reconnecting clients continue
// the learned stream.
func (s *Server) register(f *Frame) (*tenant, error) {
	if f.Type != TypeRegister {
		return nil, fmt.Errorf("first frame must be a register frame, got type %d", f.Type)
	}
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

// handleFrame serves one post-registration frame, reusing the connection's
// reply and exceeded scratch. A returned error means the connection is
// beyond saving (its outbox's write failed); protocol-level problems are
// reported to the client as error frames instead.
func (c *serverConn) handleFrame(f *Frame) error {
	t := c.tenant
	switch f.Type {
	case TypeRequest:
		c.reply = Frame{Type: TypeAlloc, Seq: f.Seq, Alloc: t.allocate(f.Category, f.TaskID)}
	case TypeRetry:
		c.exceeded = f.Exceeded.AppendKinds(c.exceeded[:0])
		c.reply = Frame{Type: TypeAlloc, Seq: f.Seq, Alloc: t.retry(f.Category, f.TaskID, f.Prev, c.exceeded)}
	case TypeObserve:
		t.observe(f.Category, f.TaskID, f.Peak, f.Runtime)
		return nil
	case TypePing:
		c.reply = Frame{Type: TypePong, Seq: f.Seq}
	case TypeStats:
		c.reply = Frame{Type: TypeStats, Seq: f.Seq, Stats: t.snapshot()}
	case TypeRegister:
		c.reply = Frame{Type: TypeError, Seq: f.Seq, Error: "connection already registered"}
	default:
		c.reply = Frame{Type: TypeError, Seq: f.Seq, Error: fmt.Sprintf("unexpected frame type %d", f.Type)}
	}
	return post(c.Out, &c.reply)
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

// Close gracefully drains the service, by the same code path as
// wq.Manager.Close: stop accepting, tell every connected client to finish
// with a drain frame, wait for connections to hang up within the drain
// timeout, then force-close the stragglers. Close is idempotent.
func (s *Server) Close() { s.srv.Close() }
