package wire

import (
	"net"
	"sync"
	"time"
)

// Conn is one connection a Server serves: the socket, the frame reader its
// reader goroutine owns, and the outbox every sender on it stages onto.
type Conn struct {
	net.Conn
	In  *Reader
	Out *Outbox
}

// Handler is one protocol on a Server. Open, Closed and the Session's
// methods run on the connection's reader goroutine.
type Handler interface {
	// Open answers a connection's first frame with its Session, or turns the
	// peer away with an error after writing whatever answer it is owed.
	Open(c *Conn, typ byte, payload []byte) (Session, error)
	// Closed ends a connection, once, before its socket closes. s is nil if
	// none was opened; a malformed first frame's cause is AsMismatch's.
	Closed(c *Conn, s Session, cause error)
	// Sweep runs every tick while the server listens.
	Sweep(now time.Time)
	// Drain runs in Close once accepting and sweeping have stopped, before
	// every connection gets the drain frame.
	Drain()
}

// Session serves one connection past its first frame; an error from either
// method ends the connection.
type Session interface {
	// Frame handles one frame, whose payload is valid until Frame returns.
	Frame(typ byte, payload []byte) error
	// Idle runs whenever the reader is about to block on the socket.
	Idle() error
}

// Server is the one server lifecycle under both protocols. Its Close stops
// accepting, lets the protocol drain, sends every connection the drain frame,
// gives the peers a bounded grace to hang up, and closes the rest.
type Server struct {
	h            Handler
	tick, grace  time.Duration
	bye          []byte        // the drain frame
	done         chan struct{} // closed by Close
	sweep, conns sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	live   map[*Conn]struct{}
	closed bool
}

// NewServer returns a Server of h, sweeping every tick (never if zero), whose
// Close sends bye and closes the connections still open grace later.
func NewServer(h Handler, tick, grace time.Duration, bye []byte) *Server {
	return &Server{h: h, tick: tick, grace: grace, bye: bye,
		done: make(chan struct{}), live: make(map[*Conn]struct{})}
}

// Listen serves TCP connections on addr and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts the sweep tick and serves what ln accepts until Close. Any
// other Accept error (a full file table, an aborted connection) is retried
// after a pause doubling from 5 ms to 1 s, as net/http does.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln = ln; s.closed {
		ln.Close()
	}
	if s.tick > 0 {
		s.sweep.Add(1)
		go func() {
			defer s.sweep.Done()
			ticker := time.NewTicker(s.tick)
			defer ticker.Stop()
			for {
				select {
				case <-s.done:
					return
				case <-ticker.C:
					s.h.Sweep(time.Now())
				}
			}
		}()
	}
	go func() {
		var pause time.Duration
		for {
			nc, err := ln.Accept()
			if err == nil {
				pause = 0
				go s.ServeConn(nc)
				continue
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			select {
			case <-s.done:
				return
			case <-time.After(pause):
			}
		}
	}()
}

// ServeConn serves one connection until it ends, then closes its outbox,
// which writes what is staged (an error frame, the drain frame), and then
// the connection. One that arrives after Close gets the drain frame once its
// first frame is in (or the grace is over), then the hangup.
func (s *Server) ServeConn(nc net.Conn) {
	c := &Conn{Conn: nc, In: NewReader(nc), Out: NewOutbox(nc)}
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.live[c] = struct{}{}
		s.conns.Add(1)
	}
	s.mu.Unlock()
	if closed {
		_ = nc.SetReadDeadline(time.Now().Add(s.grace))
		_, _, _ = c.In.Next()
		s.sayBye(c)
		c.Out.Close()
		nc.Close()
		return
	}
	defer func() {
		c.Out.Close()
		nc.Close() // both before Close's wait ends
		s.mu.Lock()
		delete(s.live, c)
		s.mu.Unlock()
		s.conns.Done()
	}()

	var sess Session
	typ, payload, err := c.In.Next()
	if err == nil {
		sess, err = s.h.Open(c, typ, payload)
	}
	if err != nil {
		s.h.Closed(c, nil, AsMismatch(err))
		return
	}
	for err == nil {
		if !c.In.Buffered() {
			if err = sess.Idle(); err != nil {
				break
			}
		}
		if typ, payload, err = c.In.Next(); err == nil {
			err = sess.Frame(typ, payload)
		}
	}
	s.h.Closed(c, sess, err)
}

// sayBye writes the drain frame; a peer already gone is past caring.
func (s *Server) sayBye(c *Conn) {
	if c.Out.Put(append(c.Out.Stage(), s.bye...)) == nil {
		c.Out.Kick()
	}
}

// Close drains the server and returns once every connection has ended.
// Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	close(s.done)
	s.sweep.Wait()

	s.h.Drain()
	for _, c := range s.snapshot() {
		s.sayBye(c)
	}
	force := time.AfterFunc(s.grace, func() {
		for _, c := range s.snapshot() {
			c.Close()
		}
	})
	defer force.Stop()
	s.conns.Wait()
}

func (s *Server) snapshot() []*Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]*Conn, 0, len(s.live))
	for c := range s.live {
		conns = append(conns, c)
	}
	return conns
}
