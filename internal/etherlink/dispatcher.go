package etherlink

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Freezer is the VPCM surface the dispatcher uses when the Ethernet link
// congests or heals loss (Section 4.2). The emulation waits in the
// dispatcher's own send or receive call while the link drains, so no
// statistics are lost and no virtual time passes; the dispatcher accounts
// each stall as frozen physical time under a named source. It may be
// called while another goroutine advances the clock.
type Freezer interface {
	AddFrozenTimeSource(source string, physCycles uint64)
}

// VPCM freeze-source names used by the dispatcher.
const (
	FreezeSource = "ethernet"
	// ResendFreezeSource attributes time frozen while the link protocol
	// heals loss (NACK/resend stalls) rather than plain congestion.
	ResendFreezeSource = "ethernet-resend"
)

// Dispatcher is the device-side Ethernet engine: it serialises statistics
// messages from the sampler onto the transport, and accounts frozen
// virtual-clock time to the VPCM whenever the link cannot accept a frame
// immediately. It counts its traffic in its endpoint's LinkStats (Link),
// which may be read while the loop runs.
type Dispatcher struct {
	ep   *Endpoint
	vpcm Freezer
	// drainPhysCycles models how many physical cycles one congested frame
	// costs the emulation while the virtual clock is frozen (FIFO drain at
	// line rate).
	drainPhysCycles uint64

	lastSendNs atomic.Int64 // wall clock of the last stats send, for RTT

	// payloadBuf is a scratch buffer reused across sends so the
	// per-window hot path does not allocate payloads, and one and
	// oneReply are the one-slot messages behind SendStats and
	// RecvTempsInto. The dispatcher is not safe for concurrent sends, so
	// plain fields suffice.
	payloadBuf []byte
	one        StatsBatch
	oneReply   TempsBatch
}

// NewDispatcher creates a dispatcher over the transport, with the default
// reliability tuning. drainPhysCycles is charged to the VPCM (which may be
// nil) per congestion event and per retransmission stall.
func NewDispatcher(tr Transport, vpcm Freezer, drainPhysCycles uint64) *Dispatcher {
	d := &Dispatcher{vpcm: vpcm, drainPhysCycles: drainPhysCycles,
		one: StatsBatch{Windows: make([]Stats, 1)}, oneReply: TempsBatch{Windows: make([]Temps, 1)}}
	d.ep = NewEndpoint(tr, DeviceMAC, HostMAC, d.hooked(ReliableConfig{}))
	return d
}

// EnableReliability re-tunes the endpoint's NACK/resend-window protocol
// (zero fields take the DefaultReliability values) before any traffic.
// Retransmission stalls stay hooked into the VPCM freeze accounting,
// preserving the freeze-don't-drop guarantee over a faulty link.
func (d *Dispatcher) EnableReliability(cfg ReliableConfig) { d.ep.rel = d.hooked(cfg) }

// hooked fills cfg's defaults and wraps its OnRetry so every re-solicit
// (already counted in LinkStats.Retries) is accounted as a resend freeze.
func (d *Dispatcher) hooked(cfg ReliableConfig) ReliableConfig {
	cfg.fillDefaults()
	inner := cfg.OnRetry
	cfg.OnRetry = func(attempt int) {
		d.accountFreeze(ResendFreezeSource)
		if inner != nil {
			inner(attempt)
		}
	}
	return cfg
}

// accountFreeze charges one drain period to the VPCM under the given
// source and mirrors it in the link counters.
func (d *Dispatcher) accountFreeze(source string) {
	if d.vpcm != nil {
		d.vpcm.AddFrozenTimeSource(source, d.drainPhysCycles)
	}
	d.ep.stats.FrozenPhys.Add(d.drainPhysCycles)
}

// Link returns the link metrics of the dispatcher's endpoint: frames,
// bytes, windows sent and answered, congestions, frozen time,
// retries, gaps, CRC errors and the round-trip latency histogram.
func (d *Dispatcher) Link() *LinkStats { return d.ep.LinkStats() }

// sendBackpressured transmits a marshalled frame. When the FIFO is full
// it waits for the link to drain and accounts the wait as frozen time
// (Section 4.2): statistics are never dropped, emulated time is never
// skewed.
func (d *Dispatcher) sendBackpressured(b []byte) error {
	ok, err := d.ep.Tr.TrySend(b)
	if err != nil {
		return err
	}
	if !ok {
		d.ep.stats.Congestions.Add(1)
		err = d.ep.Tr.Send(b)
		d.accountFreeze(FreezeSource)
		if err != nil {
			return err
		}
	}
	d.ep.noteSent(len(b))
	return nil
}

// SendStats transmits one statistics window as a one-window
// MsgStatsBatch, without allocating; RecvTempsInto receives its answer.
func (d *Dispatcher) SendStats(s *Stats) error {
	d.one.Windows[0] = *s
	return d.SendStatsBatch(&d.one)
}

// SendStatsBatch transmits 1..N queued statistics windows in one
// MsgStatsBatch frame. On congestion it waits, with the virtual clock
// frozen, until the transport accepts the frame. The host solves the
// windows in order and answers with one MsgTempBatch. The message must
// fit one frame: len(sb.Windows) <= MaxStatsBatch(components).
func (d *Dispatcher) SendStatsBatch(sb *StatsBatch) error {
	d.payloadBuf = sb.AppendPayload(d.payloadBuf[:0])
	b, err := d.ep.nextFrame(MsgStatsBatch, d.payloadBuf)
	if err != nil {
		return err
	}
	if err := d.sendBackpressured(b); err != nil {
		return err
	}
	d.ep.stats.WindowsSent.Add(uint64(len(sb.Windows)))
	d.lastSendNs.Store(time.Now().UnixNano())
	return nil
}

// SendCtrl transmits a control message (blocking).
func (d *Dispatcher) SendCtrl(op CtrlOp, arg uint64) error {
	return d.ep.Send(MsgCtrl, (&Ctrl{Op: op, Arg: arg}).MarshalPayload())
}

// Stop ends the session: it sends CtrlStop with the final cycle and waits
// for the host's echo (Endpoint.AcceptStop), so a lost stop frame is resent
// when the host re-solicits it instead of leaving the host to exhaust its
// retry budget. The wait is bounded by the endpoint's retry budget. A final
// best-effort MsgAck releases the host from lingering for a lost echo.
func (d *Dispatcher) Stop(cycle uint64) error {
	if err := d.SendCtrl(CtrlStop, cycle); err != nil {
		return err
	}
	for {
		f, err := d.ep.Recv()
		if err != nil {
			return err
		}
		if isCtrlStop(f) {
			d.ep.sendAck()
			return nil
		}
	}
}

// RecvTempsInto receives the answer to SendStats into a caller-owned
// window, reusing its MilliK backing array when its capacity suffices. A
// temperature message that does not hold exactly one window is an error.
func (d *Dispatcher) RecvTempsInto(dst *Temps, onCtrl func(*Ctrl)) error {
	d.oneReply.Windows = d.oneReply.Windows[:1]
	d.oneReply.Windows[0].MilliK = dst.MilliK
	if err := d.RecvTempsBatchInto(&d.oneReply, onCtrl); err != nil {
		return err
	}
	if n := len(d.oneReply.Windows); n != 1 {
		return fmt.Errorf("etherlink: temperature message holds %d windows, want 1", n)
	}
	*dst = d.oneReply.Windows[0]
	return nil
}

// RecvTempsBatchInto blocks until the next MsgTempBatch arrives (the answer
// to SendStatsBatch), handing interleaved control frames to onCtrl (which
// may be nil).
func (d *Dispatcher) RecvTempsBatchInto(dst *TempsBatch, onCtrl func(*Ctrl)) error {
	for {
		f, err := d.ep.Recv()
		if err != nil {
			return err
		}
		switch f.Type {
		case MsgTempBatch:
			if t0 := d.lastSendNs.Swap(0); t0 != 0 {
				d.ep.stats.ObserveLatency(time.Duration(time.Now().UnixNano() - t0))
			}
			if err := UnmarshalTempsBatchInto(dst, f.Payload); err != nil {
				return err
			}
			d.ep.stats.WindowsAnswered.Add(uint64(len(dst.Windows)))
			return nil
		case MsgCtrl:
			if onCtrl != nil {
				c, err := UnmarshalCtrl(f.Payload)
				if err != nil {
					return err
				}
				onCtrl(c)
			}
		default:
			// Unknown frames are ignored, as real MAC endpoints do.
		}
	}
}
