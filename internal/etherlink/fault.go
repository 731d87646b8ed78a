package etherlink

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrLinkCut is returned by a FaultTransport after its configured
// mid-stream disconnect has triggered.
var ErrLinkCut = fmt.Errorf("etherlink: fault-injected link cut: %w", ErrClosed)

// FaultConfig describes the impairments of one direction of a faulty link.
// Rates are probabilities per frame in [0, 1].
type FaultConfig struct {
	Drop    float64       // frame silently discarded
	Dup     float64       // frame delivered twice
	Reorder float64       // frame held back and swapped with its successor
	Corrupt float64       // one random bit flipped
	Delay   time.Duration // max extra per-frame latency (uniform in [0, Delay])
	// CutAfter, when > 0, severs the link after this many frames have
	// crossed in this direction (models a mid-stream disconnect).
	CutAfter int
}

// Zero reports whether the config injects nothing.
func (c FaultConfig) Zero() bool {
	return c.Drop == 0 && c.Dup == 0 && c.Reorder == 0 && c.Corrupt == 0 &&
		c.Delay == 0 && c.CutAfter == 0
}

// ParseFaultSpec parses a comma-separated impairment spec such as
// "drop=0.01,dup=0.005,reorder=0.01,corrupt=0.001,delay=2ms,cut=500".
func ParseFaultSpec(spec string) (FaultConfig, error) {
	var cfg FaultConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("etherlink: fault spec %q: want key=value", kv)
		}
		switch k {
		case "drop", "dup", "reorder", "corrupt":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return cfg, fmt.Errorf("etherlink: fault rate %s=%q: want a probability in [0,1]", k, v)
			}
			switch k {
			case "drop":
				cfg.Drop = p
			case "dup":
				cfg.Dup = p
			case "reorder":
				cfg.Reorder = p
			case "corrupt":
				cfg.Corrupt = p
			}
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return cfg, fmt.Errorf("etherlink: fault delay %q: %v", v, err)
			}
			cfg.Delay = d
		case "cut":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return cfg, fmt.Errorf("etherlink: fault cut %q: want a frame count", v)
			}
			cfg.CutAfter = n
		default:
			return cfg, fmt.Errorf("etherlink: unknown fault key %q", k)
		}
	}
	return cfg, nil
}

// FaultCounts tallies the impairments a leg actually injected.
type FaultCounts struct {
	Frames     uint64 // frames that crossed this leg
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	Delayed    uint64
	Cut        bool
}

type faultLeg struct {
	cfg    FaultConfig
	rng    *rand.Rand
	counts FaultCounts
	held   []byte   // reorder hold-back slot
	ready  [][]byte // frames queued for delivery (recv side only)
}

// FaultTransport wraps a Transport and injects seeded, per-direction frame
// faults — drops, duplicates, reordering, bit corruption, latency and a
// mid-stream disconnect — so every protocol invariant can be tested under
// loss. The send leg impairs outgoing frames, the recv leg incoming ones.
type FaultTransport struct {
	inner Transport

	mu   sync.Mutex
	send faultLeg
	recv faultLeg
}

// recvSeedMix separates the recv leg's PRNG stream from the send leg's.
const recvSeedMix = 0x9e3779b97f4a7c15

// NewFaultTransport wraps inner with the given per-direction impairments.
// Each leg draws from its own PRNG seeded from seed, so the faults a leg
// injects depend only on the seed and that leg's own frame sequence, never
// on how the two directions' goroutines interleave.
func NewFaultTransport(inner Transport, seed int64, send, recv FaultConfig) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		send:  faultLeg{cfg: send, rng: rand.New(rand.NewSource(seed))},
		recv:  faultLeg{cfg: recv, rng: rand.New(rand.NewSource(int64(uint64(seed) ^ recvSeedMix)))},
	}
}

// Counts returns the impairments injected so far on each leg.
func (ft *FaultTransport) Counts() (send, recv FaultCounts) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.send.counts, ft.recv.counts
}

// corrupt flips one random bit of a copy of the frame.
func (leg *faultLeg) corrupt(b []byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) > 0 {
		c[leg.rng.Intn(len(c))] ^= 1 << uint(leg.rng.Intn(8))
	}
	return c
}

// sendPlan decides, under the lock, what a send-leg frame turns into.
// It returns the frames to emit (possibly none), a delay, and whether the
// link was cut.
func (ft *FaultTransport) sendPlan(frame []byte) (out [][]byte, delay time.Duration, cut bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	leg := &ft.send
	if leg.counts.Cut {
		return nil, 0, true
	}
	leg.counts.Frames++
	if leg.cfg.CutAfter > 0 && leg.counts.Frames > uint64(leg.cfg.CutAfter) {
		leg.counts.Cut = true
		return nil, 0, true
	}
	if leg.rng.Float64() < leg.cfg.Drop {
		leg.counts.Dropped++
		return nil, 0, false
	}
	f := frame
	if leg.rng.Float64() < leg.cfg.Corrupt {
		leg.counts.Corrupted++
		f = leg.corrupt(f)
	}
	if leg.held != nil {
		// A previous frame is being held back: this one overtakes it.
		out = append(out, f, leg.held)
		leg.held = nil
		leg.counts.Reordered++
	} else if leg.rng.Float64() < leg.cfg.Reorder {
		leg.held = append([]byte(nil), f...)
	} else {
		out = append(out, f)
	}
	if len(out) > 0 && leg.rng.Float64() < leg.cfg.Dup {
		leg.counts.Duplicated++
		out = append(out, out[0])
	}
	if leg.cfg.Delay > 0 {
		leg.counts.Delayed++
		delay = time.Duration(leg.rng.Int63n(int64(leg.cfg.Delay) + 1))
	}
	return out, delay, false
}

func (ft *FaultTransport) Send(frame []byte) error {
	out, delay, cut := ft.sendPlan(frame)
	if cut {
		ft.inner.Close()
		return ErrLinkCut
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	for _, f := range out {
		if err := ft.inner.Send(f); err != nil {
			return err
		}
	}
	return nil
}

func (ft *FaultTransport) TrySend(frame []byte) (bool, error) {
	out, _, cut := ft.sendPlan(frame)
	if cut {
		ft.inner.Close()
		return false, ErrLinkCut
	}
	if len(out) == 0 {
		return true, nil // dropped or held: the link "accepted" it
	}
	ok, err := ft.inner.TrySend(out[0])
	if err != nil || !ok {
		return ok, err
	}
	for _, f := range out[1:] {
		// Best-effort for the extra copies; a full FIFO just loses them,
		// which is exactly what this transport is for.
		if _, err := ft.inner.TrySend(f); err != nil {
			return true, nil
		}
	}
	return true, nil
}

func (ft *FaultTransport) Recv() ([]byte, error) {
	for {
		ft.mu.Lock()
		if n := len(ft.recv.ready); n > 0 {
			f := ft.recv.ready[0]
			ft.recv.ready = ft.recv.ready[1:]
			ft.mu.Unlock()
			return f, nil
		}
		if ft.recv.counts.Cut {
			ft.mu.Unlock()
			return nil, ErrLinkCut
		}
		ft.mu.Unlock()

		b, err := ft.inner.Recv()
		if err != nil {
			return nil, err
		}

		ft.mu.Lock()
		leg := &ft.recv
		leg.counts.Frames++
		if leg.cfg.CutAfter > 0 && leg.counts.Frames > uint64(leg.cfg.CutAfter) {
			leg.counts.Cut = true
			ft.mu.Unlock()
			ft.inner.Close()
			return nil, ErrLinkCut
		}
		if leg.rng.Float64() < leg.cfg.Drop {
			leg.counts.Dropped++
			ft.mu.Unlock()
			continue
		}
		if leg.rng.Float64() < leg.cfg.Corrupt {
			leg.counts.Corrupted++
			b = leg.corrupt(b)
		}
		if leg.held != nil {
			// Deliver the newcomer first, then the held frame: swapped.
			leg.ready = append(leg.ready, leg.held)
			leg.held = nil
			leg.counts.Reordered++
		} else if leg.rng.Float64() < leg.cfg.Reorder {
			leg.held = b
			ft.mu.Unlock()
			continue
		}
		if leg.rng.Float64() < leg.cfg.Dup {
			leg.counts.Duplicated++
			leg.ready = append(leg.ready, append([]byte(nil), b...))
		}
		var delay time.Duration
		if leg.cfg.Delay > 0 {
			leg.counts.Delayed++
			delay = time.Duration(leg.rng.Int63n(int64(leg.cfg.Delay) + 1))
		}
		ft.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		return b, nil
	}
}

func (ft *FaultTransport) SetRecvDeadline(t time.Time) error {
	return ft.inner.SetRecvDeadline(t)
}

func (ft *FaultTransport) Close() error { return ft.inner.Close() }
