package wq

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// oversizeHeader is the header of a frame one byte past wire.MaxFrame: all a peer
// needs to send to be refused.
var oversizeHeader = append(binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1), byte(MsgResult))

// collectEvents returns a tracer option and a snapshot function for it.
func collectEvents() (Option, func() []Event) {
	var mu sync.Mutex
	var events []Event
	return WithTracer(FuncTracer(func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})), func() []Event {
			mu.Lock()
			defer mu.Unlock()
			return append([]Event(nil), events...)
		}
}

// TestOversizeFrameEvictsWorker has a worker announce a frame past wire.MaxFrame
// while it holds a task: the manager refuses the length prefix without
// buffering for it, counts one decode error, evicts the worker, and the task
// requeues and completes on the other worker.
func TestOversizeFrameEvictsWorker(t *testing.T) {
	one := resources.New(1, 1000, 1000, resources.Unlimited)
	m := NewManager(fixedPolicy{alloc: one})
	bad := joinPipeWorker(t, m, one)
	good := joinPipeWorker(t, m, one)
	first, second := m.Submit(burstTask), m.Submit(burstTask)
	held := bad.take(1)[0]
	own := good.take(1)[0]

	if _, err := bad.conn.Write(oversizeHeader); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the eviction", func() bool { return m.Workers() == 1 })
	good.write(successes(own.TaskID)...)
	requeued := good.take(1)[0]
	if requeued.TaskID != held.TaskID {
		t.Fatalf("requeued task %d, want the evicted worker's task %d", requeued.TaskID, held.TaskID)
	}
	good.write(successes(requeued.TaskID)...)

	o := <-first
	if len(o.Attempts) != 2 || o.Attempts[0].Status != metrics.Evicted || o.Attempts[1].Status != metrics.Success {
		t.Errorf("held task attempts = %+v, want Evicted then Success", o.Attempts)
	}
	if o := <-second; len(o.Attempts) != 1 || o.Attempts[0].Status != metrics.Success {
		t.Errorf("other task attempts = %+v, want one Success", o.Attempts)
	}
	if s := m.Stats(); s.DecodeErrors != 1 || s.WorkersLost != 1 || s.Evictions != 1 || s.Requeues != 1 {
		t.Errorf("decode errors %d, workers lost %d, evictions %d, requeues %d; want 1 each",
			s.DecodeErrors, s.WorkersLost, s.Evictions, s.Requeues)
	}
}

// TestBadFrameBehindResultsSettlesThenEvicts is the binary twin of the
// blank-line liveness bug: one read brings two results and then a frame that
// can never be valid. The reader must neither wait for more of it nor lose
// what came before: both results settle, then the worker is evicted and the
// task it still held requeues.
func TestBadFrameBehindResultsSettlesThenEvicts(t *testing.T) {
	for name, badFrame := range map[string][]byte{
		"oversize length": oversizeHeader,
		"unknown type":    {0, 0, 0, 0, 0x7f},
	} {
		t.Run(name, func(t *testing.T) {
			m := NewManager(fixedPolicy{alloc: resources.New(1, 1000, 1000, resources.Unlimited)})
			pw := joinPipeWorker(t, m, resources.New(3, 3000, 3000, resources.Unlimited))
			outcomes := []<-chan metrics.TaskOutcome{m.Submit(burstTask), m.Submit(burstTask), m.Submit(burstTask)}
			ids := taskIDs(pw.take(3))

			burst := append(encodeFrames(t, successes(ids[0], ids[1])...), badFrame...)
			if _, err := pw.conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			for i, ch := range outcomes[:2] {
				select {
				case o := <-ch:
					if len(o.Attempts) != 1 || o.Attempts[0].Status != metrics.Success {
						t.Errorf("task %d attempts = %+v, want one Success", ids[i], o.Attempts)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("result %d, staged ahead of the bad frame, never settled", i)
				}
			}
			waitFor(t, "the eviction", func() bool { return m.Workers() == 0 })
			s := m.Stats()
			if s.DecodeErrors != 1 || s.Successes != 2 || s.StaleResults != 0 || s.Evictions != 1 || s.QueueDepth != 1 {
				t.Errorf("decode errors %d, successes %d, stale %d, evictions %d, queued %d; want 1, 2, 0, 1, 1",
					s.DecodeErrors, s.Successes, s.StaleResults, s.Evictions, s.QueueDepth)
			}
		})
	}
}

// TestProtocolMismatchRejectsPeer: a connection whose first frame is not this
// protocol's registration — a JSON worker from before the binary wire, a
// future version, a peer that skips the handshake — is counted, traced
// against no worker, and closed.
func TestProtocolMismatchRejectsPeer(t *testing.T) {
	v2 := encodeFrames(t, &Message{Type: MsgRegister, Capacity: resources.PaperWorker()})
	v2[wire.Header+2]++ // the version byte of wireMagic
	for name, opening := range map[string][]byte{
		"JSON worker":     []byte(`{"type":"register","capacity":[16,64000,64000,3600]}` + "\n"),
		"version 2":       v2,
		"no registration": encodeFrames(t, &Message{Type: MsgPong}),
		"unknown type":    {0, 0, 0, 0, 0x7f},
	} {
		t.Run(name, func(t *testing.T) {
			traced, events := collectEvents()
			m := NewManager(fixedPolicy{}, traced)
			mgrSide, peer := net.Pipe()
			defer peer.Close()
			served := make(chan struct{})
			go func() { m.srv.ServeConn(mgrSide); close(served) }()
			if _, err := peer.Write(opening); err != nil {
				t.Fatal(err)
			}
			<-served
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("read from the rejected connection: %v, want io.EOF", err)
			}
			if s := m.Stats(); s.DecodeErrors != 1 || s.PeakWorkers != 0 {
				t.Errorf("decode errors %d, peak workers %d; want 1, 0", s.DecodeErrors, s.PeakWorkers)
			}
			evs := events()
			if len(evs) != 1 || evs[0].Type != EventDecodeError || evs[0].WorkerID != -1 ||
				!strings.Contains(evs[0].Detail, wire.ErrProtocolMismatch.Error()) {
				t.Errorf("trace = %+v, want one decode-error for worker -1 naming the protocol mismatch", evs)
			}
		})
	}
}

// TestWorkerProtocolMismatch: a worker whose manager answers the registration
// with bytes that are no frame returns wire.ErrProtocolMismatch, which tells
// cmd/wq-worker not to reconnect; a malformed frame later in the stream (here
// past wire.MaxFrame, the bound hit from the worker's end) is a *wire.FrameError but no
// mismatch.
func TestWorkerProtocolMismatch(t *testing.T) {
	for name, c := range map[string]struct {
		reply    []byte
		mismatch bool
	}{
		"JSON manager":           {reply: []byte(`{"type":"shutdown"}` + "\n"), mismatch: true},
		"oversize frame later":   {reply: append(encodeFrames(t, &Message{Type: MsgPing}), oversizeHeader...)},
		"unknown type later":     {reply: append(encodeFrames(t, &Message{Type: MsgPing}), 0, 0, 0, 0, 0x7f)},
		"register from the peer": {reply: encodeFrames(t, &Message{Type: MsgRegister})},
	} {
		t.Run(name, func(t *testing.T) {
			mgrSide, wkrSide := loopPipe()
			defer mgrSide.Close()
			done := make(chan error, 1)
			go func() { done <- runWorkerConn(context.Background(), wkrSide, WorkerConfig{}) }()
			var reg Message
			if err := newMsgReader(mgrSide).next(&reg); err != nil || reg.Type != MsgRegister {
				t.Fatalf("first frame = %+v, %v; want the registration", reg, err)
			}
			if _, err := mgrSide.Write(c.reply); err != nil {
				t.Fatal(err)
			}
			err := <-done
			var ferr *wire.FrameError
			switch {
			case name == "register from the peer":
				if err == nil || errors.As(err, &ferr) {
					t.Errorf("worker sent a register frame returned %v, want an unexpected-frame error", err)
				}
			case !errors.As(err, &ferr) || errors.Is(err, wire.ErrProtocolMismatch) != c.mismatch:
				t.Errorf("worker returned %v; want a *wire.FrameError, protocol mismatch: %v", err, c.mismatch)
			case name == "oversize frame later" && !errors.Is(err, wire.ErrFrameTooLarge):
				t.Errorf("worker returned %v, want it to wrap wire.ErrFrameTooLarge", err)
			}
		})
	}
}
