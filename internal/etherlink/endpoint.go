package etherlink

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors of the sequencing/reliability layer.
var (
	// ErrLinkStalled marks a reliable Recv that exhausted its retry budget
	// without making progress: the peer is gone or the link is dead.
	ErrLinkStalled = errors.New("etherlink: link stalled")
	// ErrResendWindow marks a resend request for a frame that has already
	// left the resend window; the session cannot be healed.
	ErrResendWindow = errors.New("etherlink: resend window overrun")
)

// seqBefore reports whether a precedes b in wraparound-safe order.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// ReliableConfig tunes an endpoint's loss-recovery protocol.
type ReliableConfig struct {
	// Window is how many sent frames are buffered for retransmission.
	Window int
	// RetryTimeout is how long Recv waits before re-soliciting the peer
	// with a NACK for the expected sequence number.
	RetryTimeout time.Duration
	// MaxRetries bounds consecutive solicits without any frame arriving;
	// exceeding it returns ErrLinkStalled. RetryTimeout × MaxRetries is the
	// endpoint's idle budget.
	MaxRetries int
	// OnRetry, when non-nil, observes every re-solicit (the dispatcher
	// hooks VPCM freeze accounting here so retransmission stalls do not
	// skew the emulated timing).
	OnRetry func(attempt int)
}

// DefaultReliability returns the production defaults: a 128-frame resend
// window and a 250 ms × 40 ≈ 10 s idle budget.
func DefaultReliability() ReliableConfig {
	return ReliableConfig{Window: 128, RetryTimeout: 250 * time.Millisecond, MaxRetries: 40}
}

func (c *ReliableConfig) fillDefaults() {
	d := DefaultReliability()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = d.RetryTimeout
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = d.MaxRetries
	}
}

// maxRecoveries bounds in-protocol recovery events (gaps, duplicates,
// corrupt frames) within one Recv call, so a pathological peer cannot spin
// the loop forever. Recoveries are cheap (a frame arrived), so the bound is
// generous.
const maxRecoveries = 10_000

type winEntry struct {
	seq   uint32
	frame []byte
}

// Endpoint is a typed wrapper over a Transport: it stamps addresses and
// sequence numbers on the way out, and validates destination MAC, CRC and
// sequence contiguity on the way in. It heals loss, duplication, reordering
// and corruption through a NACK/resend-window handshake, so the
// dispatcher's freeze-don't-drop guarantee holds over a faulty link. Both
// peers run the same protocol.
//
// Its counters live in a LinkStats, which may be read concurrently with
// the protocol loop.
type Endpoint struct {
	Tr     Transport
	Local  MAC
	Remote MAC

	seq    atomic.Uint32 // next sequence number to stamp
	expect uint32        // next expected peer sequence number (Recv loop only)
	stats  *LinkStats

	rel ReliableConfig

	sendMu sync.Mutex
	window []winEntry // resend ring, oldest first
}

// NewEndpoint builds an endpoint with the given addresses and loss-recovery
// tuning. Zero-valued config fields take the DefaultReliability values.
func NewEndpoint(tr Transport, local, remote MAC, cfg ReliableConfig) *Endpoint {
	cfg.fillDefaults()
	return &Endpoint{Tr: tr, Local: local, Remote: remote, stats: &LinkStats{}, rel: cfg}
}

// SetLinkStats shares a metrics aggregate (e.g. one per server) with the
// endpoint; by default every endpoint owns a private LinkStats.
func (e *Endpoint) SetLinkStats(s *LinkStats) {
	if s != nil {
		e.stats = s
	}
}

// LinkStats returns the endpoint's metrics aggregate.
func (e *Endpoint) LinkStats() *LinkStats { return e.stats }

// NextSeq returns the sequence number the next sent frame will carry.
func (e *Endpoint) NextSeq() uint32 { return e.seq.Load() }

// nextFrame marshals a typed frame stamped with the next sequence number
// and records it in the resend window.
func (e *Endpoint) nextFrame(typ MsgType, payload []byte) ([]byte, error) {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	seq := e.seq.Load()
	f := &Frame{Dst: e.Remote, Src: e.Local, Type: typ, Seq: seq, Payload: payload}
	b, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	e.seq.Add(1)
	if len(e.window) >= e.rel.Window {
		e.window = e.window[1:]
	}
	e.window = append(e.window, winEntry{seq: seq, frame: b})
	return b, nil
}

// noteSent accounts one frame accepted by the transport.
func (e *Endpoint) noteSent(n int) {
	e.stats.FramesSent.Add(1)
	e.stats.BytesSent.Add(uint64(n))
}

// noteRecv accounts one in-order frame handed to the caller.
func (e *Endpoint) noteRecv(n int) {
	e.stats.FramesRecv.Add(1)
	e.stats.BytesRecv.Add(uint64(n))
}

// Send marshals and transmits a typed message, blocking until accepted.
func (e *Endpoint) Send(typ MsgType, payload []byte) error {
	b, err := e.nextFrame(typ, payload)
	if err != nil {
		return err
	}
	if err := e.Tr.Send(b); err != nil {
		return err
	}
	e.noteSent(len(b))
	return nil
}

// sendNack best-effort requests a resend of everything from seq onward.
// NACKs ride outside the sequence space and are never buffered: a lost NACK
// is replaced by the next retry timeout.
func (e *Endpoint) sendNack(seq uint32) {
	f := &Frame{Dst: e.Remote, Src: e.Local, Type: MsgNack, Seq: seq}
	b, err := f.Marshal()
	if err != nil {
		return
	}
	if ok, _ := e.Tr.TrySend(b); ok {
		e.stats.NacksSent.Add(1)
	}
}

// sendAck best-effort tells the peer that its last frame arrived. Like a
// NACK it rides outside the sequence space and is never buffered.
func (e *Endpoint) sendAck() {
	f := &Frame{Dst: e.Remote, Src: e.Local, Type: MsgAck, Seq: e.expect}
	if b, err := f.Marshal(); err == nil {
		e.Tr.TrySend(b)
	}
}

// resendFrom retransmits every buffered frame with sequence >= from. A
// request beyond the buffered horizon is unhealable and returns
// ErrResendWindow; a request for frames not yet sent is a stale NACK and is
// ignored. Retransmission is best-effort (TrySend): a congested link stops
// the burst and the peer's next NACK resumes it.
func (e *Endpoint) resendFrom(from uint32) error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	next := e.seq.Load()
	if !seqBefore(from, next) {
		return nil // nothing outstanding at or past `from`
	}
	if len(e.window) == 0 || seqBefore(from, e.window[0].seq) {
		oldest := next
		if len(e.window) > 0 {
			oldest = e.window[0].seq
		}
		return fmt.Errorf("%w: peer wants seq %d, oldest buffered %d", ErrResendWindow, from, oldest)
	}
	for _, w := range e.window {
		if seqBefore(w.seq, from) {
			continue
		}
		ok, err := e.Tr.TrySend(w.frame)
		if err != nil || !ok {
			return nil // congested or transient: the peer will re-NACK
		}
		e.stats.Resent.Add(1)
	}
	return nil
}

// AcceptStop answers the peer's CtrlStop, the last frame of a session: it
// echoes the stop as the acknowledgement the peer waits for, then lingers
// to resend the echo if the peer re-solicits it.
// The linger ends on the peer's final MsgAck, on any link error (the peer
// hung up), or when no frame arrives for four retry timeouts — the peer
// re-solicits once per retry timeout, so three of its solicits in a row may
// be lost — and it answers at most MaxRetries frames. The session is complete once the stop has
// arrived, so a failure to deliver the echo is not an error.
func (e *Endpoint) AcceptStop() {
	if e.Send(MsgCtrl, (&Ctrl{Op: CtrlStop}).MarshalPayload()) != nil {
		return
	}
	defer e.Tr.SetRecvDeadline(time.Time{})
	for range e.rel.MaxRetries {
		e.Tr.SetRecvDeadline(time.Now().Add(4 * e.rel.RetryTimeout))
		b, err := e.Tr.Recv()
		if err != nil {
			return
		}
		f, err := Unmarshal(b)
		if err != nil || f.Dst != e.Local {
			continue
		}
		switch f.Type {
		case MsgAck:
			return
		case MsgNack:
			e.stats.NacksRecv.Add(1)
			if e.resendFrom(f.Seq) != nil {
				return
			}
		}
	}
}

// isCtrlStop reports whether the frame is a terminal CtrlStop.
func isCtrlStop(f *Frame) bool {
	if f.Type != MsgCtrl {
		return false
	}
	c, err := UnmarshalCtrl(f.Payload)
	return err == nil && c.Op == CtrlStop
}

// Recv receives the next in-order frame. It transparently heals gaps,
// duplicates and corruption via the NACK protocol, returning
// ErrLinkStalled when the retry budget runs out.
func (e *Endpoint) Recv() (*Frame, error) {
	retries := 0 // consecutive timeouts without any frame
	recov := 0   // in-protocol recoveries this call
	for {
		if recov > maxRecoveries {
			return nil, fmt.Errorf("%w: %d recoveries without progress", ErrLinkStalled, recov)
		}
		e.Tr.SetRecvDeadline(time.Now().Add(e.rel.RetryTimeout))
		b, err := e.Tr.Recv()
		if err != nil {
			if errors.Is(err, ErrRecvTimeout) {
				retries++
				if retries > e.rel.MaxRetries {
					return nil, fmt.Errorf("%w: no frame within %v (%d solicits)",
						ErrLinkStalled, e.rel.RetryTimeout, retries-1)
				}
				e.stats.Retries.Add(1)
				if e.rel.OnRetry != nil {
					e.rel.OnRetry(retries)
				}
				// Re-solicit: asks the peer to retransmit from our expected
				// position. If our own last frame was the one lost, the
				// peer's symmetric timeout NACK recovers it.
				e.sendNack(e.expect)
				continue
			}
			return nil, err
		}
		retries = 0
		f, err := Unmarshal(b)
		if err != nil {
			// Any parse failure on an established link is corruption: the
			// frame's sequence number cannot be trusted, so solicit from
			// the expected position.
			recov++
			e.stats.CRCErrors.Add(1)
			e.sendNack(e.expect)
			continue
		}
		if f.Dst != e.Local {
			recov++
			e.stats.DstMismatch.Add(1)
			continue
		}
		if f.Type == MsgNack {
			e.stats.NacksRecv.Add(1)
			if err := e.resendFrom(f.Seq); err != nil {
				return nil, err
			}
			continue
		}
		switch {
		case f.Seq == e.expect:
			e.expect++
			e.noteRecv(len(b))
			return f, nil
		case seqBefore(f.Seq, e.expect):
			// Already delivered; the duplicate is dropped. If the peer is
			// resending because it lost our reply, its NACK (carried
			// separately) or our next timeout solicits the heal.
			recov++
			e.stats.DupFrames.Add(1)
			continue
		default:
			// Gap: frames between expect and f.Seq were lost. Go-back-N:
			// drop this frame and solicit a resend from the hole.
			recov++
			e.stats.SeqGaps.Add(1)
			e.sendNack(e.expect)
			continue
		}
	}
}
