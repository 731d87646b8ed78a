package etherlink

import (
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("drop=0.01,dup=0.005,reorder=0.01,corrupt=0.001,delay=2ms,cut=500")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{Drop: 0.01, Dup: 0.005, Reorder: 0.01, Corrupt: 0.001,
		Delay: 2 * time.Millisecond, CutAfter: 500}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if cfg.Zero() {
		t.Error("non-empty config reported Zero")
	}
	empty, err := ParseFaultSpec("  ")
	if err != nil || !empty.Zero() {
		t.Errorf("blank spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{"drop=2", "drop=-0.1", "delay=-1s", "cut=x", "frob=1", "drop"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestFaultTransportDeterminism verifies the seeded PRNG: the same seed and
// traffic must inject the same faults, so failures replay.
func TestFaultTransportDeterminism(t *testing.T) {
	run := func(seed int64) (FaultCounts, FaultCounts) {
		dev, host := LoopbackPair(64)
		defer host.Close()
		cfg := FaultConfig{Drop: 0.2, Dup: 0.2, Reorder: 0.2, Corrupt: 0.2}
		ft := NewFaultTransport(dev, seed, cfg, cfg)
		for i := 0; i < 50; i++ {
			ft.Send([]byte{byte(i), 1, 2, 3})
			host.Send([]byte{byte(i), 4, 5, 6})
		}
		ft.SetRecvDeadline(time.Now().Add(10 * time.Millisecond))
		for {
			if _, err := ft.Recv(); err != nil {
				break
			}
		}
		return ft.Counts()
	}
	s1, r1 := run(42)
	s2, r2 := run(42)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed diverged:\nsend %+v vs %+v\nrecv %+v vs %+v", s1, s2, r1, r2)
	}
	if s1.Dropped == 0 && s1.Duplicated == 0 && s1.Reordered == 0 && s1.Corrupted == 0 {
		t.Error("20% rates injected nothing over 50 frames")
	}
}

// TestFaultLegsDrawIndependently pins one PRNG stream per leg: the faults
// the send leg injects on a fixed frame sequence are the same whether or
// not recv-leg traffic draws between its frames.
func TestFaultLegsDrawIndependently(t *testing.T) {
	cfg := FaultConfig{Drop: 0.2, Dup: 0.2, Reorder: 0.2, Corrupt: 0.2}
	run := func(recvTraffic bool) FaultCounts {
		dev, host := LoopbackPair(1024)
		defer host.Close()
		ft := NewFaultTransport(dev, 42, cfg, cfg)
		for i := 0; i < 100; i++ {
			ft.Send([]byte{byte(i), 1, 2, 3})
			if recvTraffic {
				host.Send([]byte{byte(i), 4, 5, 6})
				ft.SetRecvDeadline(time.Now().Add(time.Millisecond))
				ft.Recv()
			}
		}
		send, _ := ft.Counts()
		return send
	}
	quiet, busy := run(false), run(true)
	if quiet != busy {
		t.Fatalf("send-leg faults moved with recv traffic:\nalone     %+v\nalongside %+v", quiet, busy)
	}
}

// TestFaultTransportCut verifies the mid-stream disconnect: after CutAfter
// frames the link returns the typed ErrLinkCut.
func TestFaultTransportCut(t *testing.T) {
	dev, host := LoopbackPair(64)
	defer host.Close()
	ft := NewFaultTransport(dev, 1, FaultConfig{CutAfter: 3}, FaultConfig{})
	for i := 0; i < 3; i++ {
		if err := ft.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d before the cut: %v", i, err)
		}
	}
	if err := ft.Send([]byte{9}); !errors.Is(err, ErrLinkCut) {
		t.Fatalf("send past the cut: %v, want ErrLinkCut", err)
	}
	if err := ft.Send([]byte{10}); !errors.Is(err, ErrLinkCut) {
		t.Fatalf("cut is not sticky: %v", err)
	}
}

// faultCase is one cell of the fault matrix.
type faultCase struct {
	name string
	cfg  FaultConfig
}

func faultMatrix() []faultCase {
	return []faultCase{
		{"drop", FaultConfig{Drop: 0.08}},
		{"dup", FaultConfig{Dup: 0.15}},
		{"reorder", FaultConfig{Reorder: 0.15}},
		{"corrupt", FaultConfig{Corrupt: 0.08}},
		{"mixed", FaultConfig{Drop: 0.04, Dup: 0.05, Reorder: 0.05, Corrupt: 0.03}},
	}
}

// runReliableExchange drives a stats/temps ping-pong over the given
// transport pair with both endpoints in reliable mode, and fails the test
// unless every reply arrives in order — or a typed protocol error surfaces.
// It never hangs: the whole exchange runs under a hard deadline.
func runReliableExchange(t *testing.T, devTr, hostTr Transport, rounds int) {
	t.Helper()
	rel := ReliableConfig{Window: 64, RetryTimeout: 15 * time.Millisecond, MaxRetries: 400}

	dev := NewEndpoint(devTr, DeviceMAC, HostMAC, rel)
	host := NewEndpoint(hostTr, HostMAC, DeviceMAC, rel)

	// Host: echo every stats window back as a temps frame. Once the test
	// tears the link down, a send may report the close even for a frame
	// already delivered (the transport's writer exited under it).
	var tornDown atomic.Bool
	hostDone := make(chan struct{})
	go func() {
		defer close(hostDone)
		for {
			f, err := host.Recv()
			if err != nil {
				return // link torn down at the end of the exchange
			}
			if f.Type != MsgStatsBatch {
				continue
			}
			sb, err := UnmarshalStatsBatch(f.Payload)
			if err != nil || len(sb.Windows) != 1 {
				t.Errorf("host: corrupt stats slipped through CRC: %v", err)
				return
			}
			reply := &TempsBatch{Windows: []Temps{{TimePs: sb.Windows[0].Cycle, MilliK: []uint32{300_000}}}}
			if err := host.Send(MsgTempBatch, reply.MarshalPayload()); err != nil {
				if !tornDown.Load() {
					t.Errorf("host send: %v", err)
				}
				return
			}
		}
	}()

	devErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			sb := &StatsBatch{Windows: []Stats{{Cycle: uint64(i), WindowPs: 1000, PowerUW: []uint32{100, 200}}}}
			if err := dev.Send(MsgStatsBatch, sb.MarshalPayload()); err != nil {
				devErr <- err
				return
			}
			f, err := dev.Recv()
			if err != nil {
				devErr <- err
				return
			}
			if f.Type != MsgTempBatch {
				devErr <- errors.New("device: out-of-band frame delivered as data")
				return
			}
			tb, err := UnmarshalTempsBatch(f.Payload)
			if err != nil {
				devErr <- err
				return
			}
			if len(tb.Windows) != 1 || tb.Windows[0].TimePs != uint64(i) {
				t.Errorf("round %d: reply %+v (loss silently diverged the loop)", i, tb.Windows)
			}
		}
		devErr <- nil
	}()

	select {
	case err := <-devErr:
		if err != nil {
			// A typed error is an acceptable outcome; a hang or an untyped
			// one is not.
			for _, typed := range []error{ErrLinkStalled, ErrResendWindow, ErrLinkCut, ErrClosed} {
				if errors.Is(err, typed) {
					t.Logf("exchange ended with typed error: %v", err)
					tornDown.Store(true)
					devTr.Close()
					hostTr.Close()
					<-hostDone
					return
				}
			}
			t.Fatalf("exchange failed with untyped error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("fault matrix exchange hung")
	}

	tornDown.Store(true)
	devTr.Close()
	hostTr.Close()
	select {
	case <-hostDone:
	case <-time.After(5 * time.Second):
		t.Fatal("host loop did not terminate after close")
	}
	if ds := dev.LinkStats().Snapshot(); ds.FramesRecv < uint64(rounds) {
		t.Errorf("device delivered %d frames, want >= %d", ds.FramesRecv, rounds)
	}
}

// TestReliableLinkFaultMatrix exercises the NACK/resend protocol against
// every impairment class over both transports. The closed loop must either
// complete with the replies in order or fail with a typed error — never
// hang, never silently diverge.
func TestReliableLinkFaultMatrix(t *testing.T) {
	const rounds = 150
	for _, fc := range faultMatrix() {
		fc := fc
		t.Run("loopback/"+fc.name, func(t *testing.T) {
			t.Parallel()
			dev, host := LoopbackPair(64)
			runReliableExchange(t, NewFaultTransport(dev, 7, fc.cfg, fc.cfg), host, rounds)
		})
		t.Run("tcp/"+fc.name, func(t *testing.T) {
			t.Parallel()
			c1, c2 := net.Pipe()
			dev, host := NewTCP(c1, 64), NewTCP(c2, 64)
			runReliableExchange(t, NewFaultTransport(dev, 7, fc.cfg, fc.cfg), host, rounds)
		})
	}
}

// TestReliableLinkCutSurfacesTypedError verifies a mid-stream disconnect
// ends the exchange with ErrLinkCut (via the fault transport) instead of a
// hang.
func TestReliableLinkCutSurfacesTypedError(t *testing.T) {
	dev, host := LoopbackPair(64)
	ft := NewFaultTransport(dev, 3, FaultConfig{CutAfter: 40}, FaultConfig{})
	runReliableExchange(t, ft, host, 500)
}
