package etherlink

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Dst: HostMAC, Src: DeviceMAC, Type: MsgStatsBatch, Seq: 42,
		Payload: []byte{1, 2, 3, 4, 5}}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type || g.Seq != f.Seq {
		t.Errorf("header mismatch: %+v vs %+v", g, f)
	}
	if string(g.Payload) != string(f.Payload) {
		t.Errorf("payload mismatch")
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(seq uint32, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := &Frame{Dst: HostMAC, Src: DeviceMAC, Type: MsgTempBatch, Seq: seq, Payload: payload}
		b, err := in.Marshal()
		if err != nil {
			return false
		}
		out, err := Unmarshal(b)
		if err != nil {
			return false
		}
		if out.Seq != seq || len(out.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if out.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	f := &Frame{Dst: HostMAC, Src: DeviceMAC, Type: MsgStatsBatch, Seq: 7,
		Payload: []byte("statistics")}
	b, _ := f.Marshal()
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		c := append([]byte(nil), b...)
		c[r.Intn(len(c))] ^= 1 << uint(r.Intn(8))
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("trial %d: corrupted frame accepted", trial)
		}
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Errorf("short frame: %v", err)
	}
	big := &Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := big.Marshal(); !errors.Is(err, ErrTooLong) {
		t.Errorf("oversized: %v", err)
	}
	ok, _ := (&Frame{Type: MsgAck}).Marshal()
	bad := append([]byte(nil), ok...)
	bad[12] = 0x08 // wrong ethertype
	recrc := func(b []byte) {
		f, _ := Unmarshal(ok)
		_ = f
	}
	_ = recrc
	if _, err := Unmarshal(bad); err == nil {
		t.Error("wrong ethertype accepted")
	}
}

// TestStatsPayloadRoundTrip pins the common statistics message, one
// window long.
func TestStatsPayloadRoundTrip(t *testing.T) {
	s := Stats{Cycle: 123456789, WindowPs: 10_000_000_000, PowerUW: []uint32{100, 0, 55_000, 1 << 30}}
	payload := (&StatsBatch{Windows: []Stats{s}}).MarshalPayload()
	if len(payload) != 2+statsEntryBytes(len(s.PowerUW)) {
		t.Fatalf("one-window payload is %d bytes, want %d", len(payload), 2+statsEntryBytes(len(s.PowerUW)))
	}
	got, err := UnmarshalStatsBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Windows) != 1 {
		t.Fatalf("decoded %d windows, want 1", len(got.Windows))
	}
	w := got.Windows[0]
	if w.Cycle != s.Cycle || w.WindowPs != s.WindowPs || len(w.PowerUW) != 4 {
		t.Errorf("got %+v", w)
	}
	for i := range s.PowerUW {
		if w.PowerUW[i] != s.PowerUW[i] {
			t.Errorf("power %d: %d != %d", i, w.PowerUW[i], s.PowerUW[i])
		}
	}
}

// TestTempsPayloadRoundTrip pins the common temperature message, one
// window long, and its kelvin view.
func TestTempsPayloadRoundTrip(t *testing.T) {
	in := Temps{TimePs: 42_000, MilliK: []uint32{300_000, 350_125, 341_000}}
	got, err := UnmarshalTempsBatch((&TempsBatch{Windows: []Temps{in}}).MarshalPayload())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Windows) != 1 || got.Windows[0].TimePs != 42_000 {
		t.Fatalf("got %+v", got.Windows)
	}
	for i, want := range []float64{300, 350.125, 341} {
		if k := got.Windows[0].Kelvin(i); k != want {
			t.Errorf("cell %d: %.4f K, want %.4f K", i, k, want)
		}
	}
}

func TestCtrlPayloadRoundTrip(t *testing.T) {
	c := &Ctrl{Op: CtrlStop, Arg: 999}
	got, err := UnmarshalCtrl(c.MarshalPayload())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != CtrlStop || got.Arg != 999 {
		t.Errorf("got %+v", got)
	}
	if _, err := UnmarshalCtrl([]byte{1, 2}); err == nil {
		t.Error("short ctrl accepted")
	}
	if CtrlStart.String() != "start" || CtrlOp(99).String() == "" {
		t.Error("ctrl op strings")
	}
}

func TestLoopbackTransport(t *testing.T) {
	dev, host := LoopbackPair(4)
	if err := dev.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := host.Recv()
	if err != nil || string(b) != "hello" {
		t.Fatalf("recv %q, %v", b, err)
	}
	// Reverse direction.
	if err := host.Send([]byte("temps")); err != nil {
		t.Fatal(err)
	}
	if b, _ := dev.Recv(); string(b) != "temps" {
		t.Errorf("reverse recv %q", b)
	}
}

// TestLoopbackRecvDeadlineConcurrent: receivers sharing one loopback end,
// each waiting under a deadline, get every frame exactly once and time out
// cleanly in between; the end's reused timer never serves two waits (a
// receiver whose expiry another one consumed would wait forever).
func TestLoopbackRecvDeadlineConcurrent(t *testing.T) {
	const frames = 300
	dev, host := LoopbackPair(4)
	var got atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < frames {
				host.SetRecvDeadline(time.Now().Add(time.Millisecond))
				_, err := host.Recv()
				switch {
				case err == nil:
					got.Add(1)
				case !errors.Is(err, ErrRecvTimeout):
					t.Errorf("recv: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < frames; i++ {
		if err := dev.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("receivers still waiting 10 s after %d of %d frames", got.Load(), frames)
	}
	if n := got.Load(); n != frames {
		t.Fatalf("received %d frames, sent %d", n, frames)
	}
}

func TestLoopbackCongestion(t *testing.T) {
	dev, _ := LoopbackPair(2)
	for i := 0; i < 2; i++ {
		if ok, _ := dev.TrySend([]byte{byte(i)}); !ok {
			t.Fatalf("send %d rejected", i)
		}
	}
	if ok, _ := dev.TrySend([]byte{9}); ok {
		t.Error("TrySend succeeded on full link")
	}
}

func TestLoopbackClose(t *testing.T) {
	dev, host := LoopbackPair(2)
	dev.Send([]byte("x"))
	dev.Close()
	// Host can still drain queued frames, then sees EOF.
	if b, err := host.Recv(); err != nil || string(b) != "x" {
		t.Fatalf("drain after close: %q, %v", b, err)
	}
	if _, err := host.Recv(); err != io.EOF {
		t.Errorf("after drain: %v, want EOF", err)
	}
	if err := dev.Send([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

// fakeFreezer records the frozen physical cycles the dispatcher accounts,
// per source.
type fakeFreezer struct {
	mu    sync.Mutex
	bySrc map[string]uint64
}

func (f *fakeFreezer) AddFrozenTimeSource(source string, c uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bySrc == nil {
		f.bySrc = map[string]uint64{}
	}
	f.bySrc[source] += c
}

func TestDispatcherCongestionFreezesClock(t *testing.T) {
	dev, host := LoopbackPair(1)
	fz := &fakeFreezer{}
	d := NewDispatcher(dev, fz, 500)
	// Slow consumer that drains one frame after a delay.
	go func() {
		time.Sleep(10 * time.Millisecond)
		for {
			if _, err := host.Recv(); err != nil {
				return
			}
		}
	}()
	s := &Stats{Cycle: 1, WindowPs: 1, PowerUW: []uint32{1}}
	if err := d.SendStats(s); err != nil { // fills the FIFO
		t.Fatal(err)
	}
	if err := d.SendStats(s); err != nil { // congested: must freeze+block
		t.Fatal(err)
	}
	st := d.Link().Snapshot()
	if st.Congestions == 0 {
		t.Error("no congestion recorded")
	}
	if st.WindowsSent != 2 || st.FrozenPhys != 500*st.Congestions {
		t.Errorf("link stats = %+v, want 2 windows sent and %d frozen cycles", st, 500*st.Congestions)
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if len(fz.bySrc) != 1 || fz.bySrc[FreezeSource] != 500*st.Congestions {
		t.Errorf("frozen cycles by source = %v, want %s: %d", fz.bySrc, FreezeSource, 500*st.Congestions)
	}
	dev.Close()
}

// TestDispatcherResendStallsFreezeClock: every re-solicit of a silent peer
// is accounted as a resend freeze, also after EnableReliability re-tunes
// the endpoint, and the exhausted budget surfaces as ErrLinkStalled.
func TestDispatcherResendStallsFreezeClock(t *testing.T) {
	dev, _ := LoopbackPair(8)
	fz := &fakeFreezer{}
	d := NewDispatcher(dev, fz, 300)
	d.EnableReliability(ReliableConfig{RetryTimeout: time.Millisecond, MaxRetries: 3})
	if err := d.RecvTempsInto(&Temps{}, nil); !errors.Is(err, ErrLinkStalled) {
		t.Fatalf("recv from a silent peer: %v, want ErrLinkStalled", err)
	}
	if st := d.Link().Snapshot(); st.Retries != 3 || st.FrozenPhys != 3*300 {
		t.Errorf("stats = %+v, want 3 retries and %d frozen cycles", st, 3*300)
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if len(fz.bySrc) != 1 || fz.bySrc[ResendFreezeSource] != 3*300 {
		t.Errorf("frozen cycles by source = %v, want %s: %d", fz.bySrc, ResendFreezeSource, 3*300)
	}
}

// TestDispatcherTempsAndCtrl: the one-window receive hands interleaved
// control frames to its callback, counts the answered window, and refuses
// a temperature message that does not hold exactly one window.
func TestDispatcherTempsAndCtrl(t *testing.T) {
	dev, hostTr := LoopbackPair(8)
	d := NewDispatcher(dev, nil, 0)
	host := NewEndpoint(hostTr, HostMAC, DeviceMAC, ReliableConfig{})
	// Host sends a ctrl then a temps frame.
	if err := host.Send(MsgCtrl, (&Ctrl{Op: CtrlStart, Arg: 5}).MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	one := &TempsBatch{Windows: []Temps{{TimePs: 10, MilliK: []uint32{301_000, 302_000}}}}
	if err := host.Send(MsgTempBatch, one.MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	var gotCtrl *Ctrl
	var tm Temps
	if err := d.RecvTempsInto(&tm, func(c *Ctrl) { gotCtrl = c }); err != nil {
		t.Fatal(err)
	}
	if gotCtrl == nil || gotCtrl.Op != CtrlStart || gotCtrl.Arg != 5 {
		t.Errorf("ctrl = %+v", gotCtrl)
	}
	if tm.TimePs != 10 || len(tm.MilliK) != 2 || tm.Kelvin(1) != 302 {
		t.Errorf("temps = %+v", tm)
	}
	if st := d.Link().Snapshot(); st.WindowsAnswered != 1 || st.FramesRecv != 2 {
		t.Errorf("link stats = %+v, want 1 window answered in 2 frames", st)
	}

	two := &TempsBatch{Windows: []Temps{{TimePs: 1}, {TimePs: 2}}}
	if err := host.Send(MsgTempBatch, two.MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	if err := d.RecvTempsInto(&tm, nil); err == nil || !strings.Contains(err.Error(), "holds 2 windows") {
		t.Errorf("two-window answer to a one-window receive: %v", err)
	}
}

// TestDispatcherOneWindowAllocs pins the one-window forms that replay the
// serial loop: a SendStats/RecvTempsInto round trip against a scripted host
// allocates only the two marshalled frames and the two received Frame
// headers, as the batch path does.
func TestDispatcherOneWindowAllocs(t *testing.T) {
	dev, hostTr := LoopbackPair(4)
	d := NewDispatcher(dev, nil, 0)
	host := NewEndpoint(hostTr, HostMAC, DeviceMAC, ReliableConfig{})
	s := &Stats{Cycle: 1, WindowPs: 2, PowerUW: []uint32{3, 4, 5}}
	reply := (&TempsBatch{Windows: []Temps{{TimePs: 6, MilliK: []uint32{300_000, 301_000}}}}).MarshalPayload()
	var tm Temps
	roundTrip := func() {
		if err := d.SendStats(s); err != nil {
			t.Fatal(err)
		}
		if _, err := host.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := host.Send(MsgTempBatch, reply); err != nil {
			t.Fatal(err)
		}
		if err := d.RecvTempsInto(&tm, nil); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // sizes the scratch buffers
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 4 {
		t.Errorf("one-window round trip: %.1f allocs, want at most 4 (two frames, two Frame headers)", allocs)
	}
	if tm.TimePs != 6 || tm.Kelvin(1) != 301 {
		t.Errorf("temps = %+v", tm)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		stats *Stats
		err   error
	}
	res := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			res <- result{nil, err}
			return
		}
		host := NewEndpoint(NewTCP(conn, 16), HostMAC, DeviceMAC, ReliableConfig{})
		f, err := host.Recv()
		if err != nil {
			res <- result{nil, err}
			return
		}
		sb, err := UnmarshalStatsBatch(f.Payload)
		if err != nil {
			res <- result{nil, err}
			return
		}
		// Answer with temperatures.
		reply := &TempsBatch{Windows: []Temps{{TimePs: 77, MilliK: []uint32{315_500}}}}
		err = host.Send(MsgTempBatch, reply.MarshalPayload())
		res <- result{&sb.Windows[0], err}
	}()

	tr, err := Dial(l.Addr().String(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	d := NewDispatcher(tr, nil, 0)
	want := &Stats{Cycle: 99, WindowPs: 10_000, PowerUW: []uint32{123, 456}}
	if err := d.SendStats(want); err != nil {
		t.Fatal(err)
	}
	var tm Temps
	if err := d.RecvTempsInto(&tm, nil); err != nil {
		t.Fatal(err)
	}
	if tm.Kelvin(0) != 315.5 {
		t.Errorf("temp = %v", tm.Kelvin(0))
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.stats.Cycle != 99 || r.stats.PowerUW[1] != 456 {
		t.Errorf("host got %+v", r.stats)
	}
}

func TestMACString(t *testing.T) {
	if DeviceMAC.String() != "02:54:45:4d:55:01" {
		t.Errorf("got %s", DeviceMAC)
	}
}

func TestEndpointSequenceNumbers(t *testing.T) {
	dev, host := LoopbackPair(8)
	e := NewEndpoint(dev, DeviceMAC, HostMAC, ReliableConfig{})
	h := NewEndpoint(host, HostMAC, DeviceMAC, ReliableConfig{})
	for i := uint32(0); i < 3; i++ {
		if e.NextSeq() != i {
			t.Errorf("next seq = %d, want %d", e.NextSeq(), i)
		}
		if err := e.Send(MsgAck, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 3; i++ {
		f, err := h.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != i {
			t.Errorf("recv seq = %d, want %d", f.Seq, i)
		}
	}
	if sent, recv := e.LinkStats().FramesSent.Load(), h.LinkStats().FramesRecv.Load(); sent != 3 || recv != 3 {
		t.Errorf("counters: sent=%d recv=%d", sent, recv)
	}
}

// TestEndpointRoundTripAllocs pins the copy-free frame path: one endpoint
// round trip over the loopback allocates the marshalled frame and the
// received Frame header, and copies the frame bytes nowhere else — neither
// the transport nor Unmarshal copies them. The resend window keeps the
// frame without a copy, and the receive deadline reuses the loopback's
// timer.
func TestEndpointRoundTripAllocs(t *testing.T) {
	dev, host := LoopbackPair(1)
	e := NewEndpoint(dev, DeviceMAC, HostMAC, ReliableConfig{})
	h := NewEndpoint(host, HostMAC, DeviceMAC, ReliableConfig{})
	payload := (&TempsBatch{Windows: []Temps{{TimePs: 1, MilliK: []uint32{300_000, 301_000, 302_000, 303_000}}}}).MarshalPayload()
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Send(MsgTempBatch, payload); err != nil {
			t.Fatal(err)
		}
		f, err := h.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(f.Payload) != string(payload) {
			t.Fatal("payload changed in transit")
		}
	})
	if allocs > 2 {
		t.Errorf("endpoint round trip: %.1f allocs, want at most 2 (frame and Frame)", allocs)
	}
}
