package etherlink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Transport moves serialised frames between the device and the host.
// Send blocks until the frame is accepted; TrySend never blocks and reports
// whether the frame was accepted — the dispatcher uses it to detect link
// congestion and freeze the virtual clock instead of dropping statistics.
// SetRecvDeadline bounds the next Recv calls (the zero time clears the
// bound); an expired deadline surfaces as ErrRecvTimeout, which is the only
// Recv error a caller may retry without reconnecting.
//
// Frames are immutable once marshalled. Send and TrySend may keep the frame
// after they return (a queued frame is delivered or written later), so the
// caller must not modify it afterwards. Recv hands its frame over: the
// transport never touches it again. A received frame may share memory with
// other received frames (a resend or a duplicate of the same send), so
// receivers only read it.
type Transport interface {
	Send(frame []byte) error
	TrySend(frame []byte) (bool, error)
	Recv() ([]byte, error) // blocks; returns io.EOF after Close
	SetRecvDeadline(t time.Time) error
	Close() error
}

// Errors of the transport layer.
var (
	// ErrClosed is returned by operations on a closed transport.
	ErrClosed = errors.New("etherlink: transport closed")
	// ErrRecvTimeout marks a Recv that expired its deadline without
	// consuming any bytes; the link is intact and the call may be retried.
	ErrRecvTimeout = errors.New("etherlink: recv timeout")
	// ErrDesync marks a Recv deadline that expired mid-frame: the byte
	// stream position is lost and the connection must be re-established.
	ErrDesync = errors.New("etherlink: stream desynchronised mid-frame")
)

// loopback is one endpoint of an in-process transport pair.
type loopback struct {
	out  chan []byte
	in   chan []byte
	once *sync.Once
	done chan struct{}

	mu       sync.Mutex
	deadline time.Time
	// timer is reused by every Recv with a deadline, so a receive costs no
	// allocation. A Recv takes it out while it waits; a concurrent Recv
	// that finds it gone builds its own.
	timer *time.Timer
}

// LoopbackPair creates two connected in-process transports whose link can
// buffer depth frames in each direction. It models the FPGA Ethernet core's
// FIFO: when the peer does not drain fast enough, TrySend fails.
func LoopbackPair(depth int) (device, host Transport) {
	ab := make(chan []byte, depth)
	ba := make(chan []byte, depth)
	done := make(chan struct{})
	once := &sync.Once{}
	return &loopback{out: ab, in: ba, once: once, done: done},
		&loopback{out: ba, in: ab, once: once, done: done}
}

func (l *loopback) Send(frame []byte) error {
	select {
	case <-l.done:
		return ErrClosed
	default:
	}
	select {
	case l.out <- frame:
		return nil
	case <-l.done:
		return ErrClosed
	}
}

func (l *loopback) TrySend(frame []byte) (bool, error) {
	select {
	case <-l.done:
		return false, ErrClosed
	default:
	}
	select {
	case l.out <- frame:
		return true, nil
	default:
		return false, nil
	}
}

func (l *loopback) SetRecvDeadline(t time.Time) error {
	l.mu.Lock()
	l.deadline = t
	l.mu.Unlock()
	return nil
}

func (l *loopback) Recv() ([]byte, error) {
	l.mu.Lock()
	deadline, timer := l.deadline, l.timer
	if deadline.IsZero() {
		l.mu.Unlock()
		return l.recv(nil)
	}
	l.timer = nil
	l.mu.Unlock()
	if timer == nil {
		timer = time.NewTimer(time.Until(deadline))
	} else {
		timer.Reset(time.Until(deadline))
	}
	f, err := l.recv(timer.C)
	// Stop and drain, so the next Reset starts from a clean channel under
	// either timer semantics (Go 1.23 changed them).
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	l.mu.Lock()
	l.timer = timer
	l.mu.Unlock()
	return f, err
}

// recv waits for a frame, the transport's close or expired, whichever
// comes first.
func (l *loopback) recv(expired <-chan time.Time) ([]byte, error) {
	select {
	case f := <-l.in:
		return f, nil
	case <-l.done:
		// Drain anything already queued before reporting EOF.
		select {
		case f := <-l.in:
			return f, nil
		default:
			return nil, io.EOF
		}
	case <-expired:
		// A frame may have raced the timer; prefer it.
		select {
		case f := <-l.in:
			return f, nil
		default:
			return nil, ErrRecvTimeout
		}
	}
}

func (l *loopback) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// tcpTransport carries frames over a net.Conn, length-prefixed with a
// 32-bit little-endian size. A writer goroutine provides the non-blocking
// TrySend queue.
type tcpTransport struct {
	conn   net.Conn
	sendCh chan []byte
	done   chan struct{}
	// writerDone is closed when the writer goroutine exits — on a write
	// error or after the Close flush. Send/TrySend select on it so a send
	// racing the writer's death fails instead of parking on a channel
	// nobody drains.
	writerDone chan struct{}
	// closed, set under sendMu, refuses every send that starts after
	// Close; sending counts the enqueues already in progress, and Close
	// closes done only once they have finished. So every frame a send
	// queued is in the queue before the writer's final flush, which
	// delivers it or leaves it for Close to count as stranded. closing
	// releases a send that waits for room in the queue.
	sendMu  sync.Mutex
	closed  bool
	sending sync.WaitGroup
	closing chan struct{}
	wg      sync.WaitGroup
	writeMu sync.Mutex
	werr    error

	recvMu   sync.Mutex
	deadline time.Time
}

// NewTCP wraps an established connection (either side) into a Transport.
// queueDepth bounds the send queue, modelling the device FIFO.
func NewTCP(conn net.Conn, queueDepth int) Transport {
	t := &tcpTransport{
		conn:       conn,
		sendCh:     make(chan []byte, queueDepth),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
		closing:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.writer()
	return t
}

// Dial connects to a host-side listener and returns the device transport.
func Dial(addr string, queueDepth int) (Transport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("etherlink: dial %s: %w", addr, err)
	}
	return NewTCP(conn, queueDepth), nil
}

func (t *tcpTransport) writer() {
	defer t.wg.Done()
	defer close(t.writerDone)
	for {
		select {
		case f := <-t.sendCh:
			if err := t.writeFrame(f); err != nil {
				t.setWriteErr(err)
				return
			}
		case <-t.done:
			// Flush whatever is still queued.
			for {
				select {
				case f := <-t.sendCh:
					if err := t.writeFrame(f); err != nil {
						t.setWriteErr(err)
						return
					}
				default:
					return
				}
			}
		}
	}
}

func (t *tcpTransport) writeFrame(f []byte) error {
	// One write per frame: the length prefix and payload never straddle a
	// writer-side gap the reader's deadline could expire inside.
	buf := make([]byte, 4+len(f))
	binary.LittleEndian.PutUint32(buf, uint32(len(f)))
	copy(buf[4:], f)
	_, err := t.conn.Write(buf)
	return err
}

func (t *tcpTransport) setWriteErr(err error) {
	t.writeMu.Lock()
	if t.werr == nil {
		t.werr = err
	}
	t.writeMu.Unlock()
}

func (t *tcpTransport) sendErr() error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	return t.werr
}

// deadErr reports the write error that killed the writer. While a send is
// in progress done stays open, so a write error is the only way the
// writer can have exited.
func (t *tcpTransport) deadErr() error {
	return fmt.Errorf("etherlink: send after writer death: %w", t.sendErr())
}

func (t *tcpTransport) Send(frame []byte) error {
	_, err := t.enqueue(frame, true)
	return err
}

func (t *tcpTransport) TrySend(frame []byte) (bool, error) {
	return t.enqueue(frame, false)
}

// enqueue hands frame to the writer, waiting for room in the queue when
// block is set.
func (t *tcpTransport) enqueue(frame []byte, block bool) (bool, error) {
	t.sendMu.Lock()
	if t.closed {
		t.sendMu.Unlock()
		return false, ErrClosed
	}
	t.sending.Add(1)
	t.sendMu.Unlock()
	defer t.sending.Done()
	select {
	case <-t.writerDone:
		return false, t.deadErr()
	case t.sendCh <- frame:
	default:
		if !block {
			return false, nil
		}
		select {
		case <-t.writerDone:
			return false, t.deadErr()
		case <-t.closing:
			return false, ErrClosed
		case t.sendCh <- frame:
		}
	}
	// The enqueue may have raced the writer's death; a frame parked
	// behind a dead writer would otherwise be dropped silently.
	select {
	case <-t.writerDone:
		return false, t.deadErr()
	default:
		return true, nil
	}
}

func (t *tcpTransport) SetRecvDeadline(d time.Time) error {
	t.recvMu.Lock()
	t.deadline = d
	t.recvMu.Unlock()
	return nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// recvGrace bounds the rest of a frame once its first bytes have arrived:
// the peer is committed mid-frame, so an expiring solicit deadline must not
// desynchronise the stream — only a genuinely stalled peer should.
const recvGrace = time.Second

func (t *tcpTransport) Recv() ([]byte, error) {
	t.recvMu.Lock()
	deadline := t.deadline
	t.recvMu.Unlock()
	t.conn.SetReadDeadline(deadline)
	var hdr [4]byte
	if n, err := io.ReadFull(t.conn, hdr[:]); err != nil {
		if !isTimeout(err) {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: %v", ErrRecvTimeout, err)
		}
		t.conn.SetReadDeadline(time.Now().Add(recvGrace))
		if m, err := io.ReadFull(t.conn, hdr[n:]); err != nil {
			if isTimeout(err) {
				return nil, fmt.Errorf("%w: %d header bytes read", ErrDesync, n+m)
			}
			return nil, err
		}
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > headerLen+MaxPayload+crcLen {
		return nil, fmt.Errorf("etherlink: oversized frame (%d bytes)", n)
	}
	f := make([]byte, n)
	t.conn.SetReadDeadline(time.Now().Add(recvGrace))
	if m, err := io.ReadFull(t.conn, f); err != nil {
		if isTimeout(err) {
			return nil, fmt.Errorf("%w: %d of %d payload bytes read", ErrDesync, m, n)
		}
		return nil, err
	}
	return f, nil
}

// closeGrace bounds Close's flush of the queued frames.
const closeGrace = time.Second

// Close shuts the transport down: the writer flushes what it can, and any
// frames stranded in the queue (the writer died on a write error first) are
// reported, wrapped around the write error that killed it.
func (t *tcpTransport) Close() error {
	// Bound the writer's flush: a peer that stopped draining would block
	// the final writes forever, wedging Close behind the wg.Wait. The
	// deadline also unblocks a write already in flight.
	t.conn.SetWriteDeadline(time.Now().Add(closeGrace))
	t.sendMu.Lock()
	first := !t.closed
	t.closed = true
	t.sendMu.Unlock()
	if first {
		close(t.closing)
		t.sending.Wait()
		close(t.done)
	}
	t.wg.Wait()
	cerr := t.conn.Close()
	stranded := 0
	for {
		select {
		case <-t.sendCh:
			stranded++
		default:
			if stranded > 0 {
				werr := t.sendErr()
				if werr == nil {
					werr = ErrClosed
				}
				return fmt.Errorf("etherlink: %d queued frames undelivered: %w", stranded, werr)
			}
			return cerr
		}
	}
}
