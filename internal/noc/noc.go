// Package noc models the Network-on-Chip interconnects of the emulated
// MPSoC. It plays the role of the Xpipes NoCs the paper instantiates with
// XpipesCompiler (Section 3.3): a generator builds application-specific
// topologies (meshes, rings, or custom switch/link graphs), cores and
// memories attach to switches through OCP-style network interfaces, and
// transactions travel as wormhole-switched flit packets through switches
// with configurable buffering.
//
// The timing model is per-link: each directed link keeps a busy-until
// horizon, packets pay a per-hop switch traversal plus link serialisation
// for their flits, and reads pay the return trip of the response packet.
package noc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Link is a directed connection between two switches.
type Link struct {
	From, To int
}

// Topology is a switch/link graph with endpoint attachments.
type Topology struct {
	Name     string
	Switches int
	Links    []Link
	// InitiatorSwitch maps an initiator (core) index to its switch.
	InitiatorSwitch map[int]int
}

// Validate checks structural consistency: link endpoints exist and every
// switch is reachable from every other (in the directed sense).
func (t *Topology) Validate() error {
	if t.Switches <= 0 {
		return fmt.Errorf("noc %s: no switches", t.Name)
	}
	for _, l := range t.Links {
		if l.From < 0 || l.From >= t.Switches || l.To < 0 || l.To >= t.Switches {
			return fmt.Errorf("noc %s: link %v references missing switch", t.Name, l)
		}
		if l.From == l.To {
			return fmt.Errorf("noc %s: self-link on switch %d", t.Name, l.From)
		}
	}
	for _, sw := range t.InitiatorSwitch {
		if sw < 0 || sw >= t.Switches {
			return fmt.Errorf("noc %s: initiator attached to missing switch %d", t.Name, sw)
		}
	}
	adj := t.adjacency()
	for src := 0; src < t.Switches; src++ {
		seen := t.bfs(src, adj)
		for dst := 0; dst < t.Switches; dst++ {
			if seen[dst] < 0 && dst != src {
				return fmt.Errorf("noc %s: switch %d cannot reach switch %d", t.Name, src, dst)
			}
		}
	}
	return nil
}

func (t *Topology) adjacency() [][]int {
	adj := make([][]int, t.Switches)
	for i, l := range t.Links {
		adj[l.From] = append(adj[l.From], i)
	}
	return adj
}

// bfs returns, per destination, the incoming link index of the shortest
// path tree rooted at src (-1 when unreachable).
func (t *Topology) bfs(src int, adj [][]int) []int {
	in := make([]int, t.Switches)
	for i := range in {
		in[i] = -1
	}
	visited := make([]bool, t.Switches)
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, li := range adj[cur] {
			next := t.Links[li].To
			if !visited[next] {
				visited[next] = true
				in[next] = li
				queue = append(queue, next)
			}
		}
	}
	return in
}

// Mesh generates a w×h 2D mesh with bidirectional links, attaching
// initiators 0..n to switches in row-major round-robin order. This mirrors
// the regular topologies XpipesCompiler emits.
func Mesh(w, h int) *Topology {
	t := &Topology{Name: fmt.Sprintf("mesh%dx%d", w, h), Switches: w * h,
		InitiatorSwitch: map[int]int{}}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				t.Links = append(t.Links, Link{id(x, y), id(x+1, y)}, Link{id(x+1, y), id(x, y)})
			}
			if y+1 < h {
				t.Links = append(t.Links, Link{id(x, y), id(x, y+1)}, Link{id(x, y+1), id(x, y)})
			}
		}
	}
	return t
}

// Ring generates an n-switch bidirectional ring.
func Ring(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("ring%d", n), Switches: n, InitiatorSwitch: map[int]int{}}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		t.Links = append(t.Links, Link{i, j}, Link{j, i})
	}
	return t
}

// Attach binds initiator (core) index to a switch.
func (t *Topology) Attach(initiator, sw int) *Topology {
	t.InitiatorSwitch[initiator] = sw
	return t
}

// Config sets the flit-level parameters of a NoC instance, matching the
// knobs of the paper's Xpipes instantiations (number of switches and links
// come from the Topology; buffers and widths here).
type Config struct {
	FlitBytes    uint32 // link width in bytes (32-bit switches => 4)
	BufferFlits  uint64 // output buffer depth per port ("3-package buffers")
	SwitchCycles uint64 // per-hop switch traversal delay
	LinkCycles   uint64 // per-hop link traversal delay
}

// DefaultConfig mirrors the Table 3 NoC: 32-bit switches, 3-flit buffers.
func DefaultConfig() Config {
	return Config{FlitBytes: 4, BufferFlits: 3, SwitchCycles: 1, LinkCycles: 1}
}

// Stats holds the count-logging sniffer counters of a NoC.
type Stats struct {
	Packets      uint64
	Flits        uint64
	OCPReads     uint64
	OCPWrites    uint64
	WaitCycles   uint64
	HopsTraveled uint64
	Transitions  uint64
}

// Network is the NoC timing model over a Topology.
type Network struct {
	topo     *Topology
	cfg      Config
	routes   [][][]int // routes[src][dst] = link indices
	linkBusy []uint64
	linkUse  []uint64
	stats    Stats
}

// New builds a network, validating the topology and precomputing
// shortest-path routes (the static source routing of Xpipes NIs).
func New(topo *Topology, cfg Config) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.FlitBytes == 0 {
		return nil, fmt.Errorf("noc %s: flit size must be positive", topo.Name)
	}
	n := &Network{topo: topo, cfg: cfg,
		linkBusy: make([]uint64, len(topo.Links)),
		linkUse:  make([]uint64, len(topo.Links))}
	adj := topo.adjacency()
	n.routes = make([][][]int, topo.Switches)
	for src := 0; src < topo.Switches; src++ {
		in := topo.bfs(src, adj)
		n.routes[src] = make([][]int, topo.Switches)
		for dst := 0; dst < topo.Switches; dst++ {
			if dst == src {
				continue
			}
			var rev []int
			for cur := dst; cur != src; {
				li := in[cur]
				rev = append(rev, li)
				cur = topo.Links[li].From
			}
			route := make([]int, len(rev))
			for i := range rev {
				route[i] = rev[len(rev)-1-i]
			}
			n.routes[src][dst] = route
		}
	}
	return n, nil
}

// MustNew is New for trusted topologies; it panics on error.
func MustNew(topo *Topology, cfg Config) *Network {
	n, err := New(topo, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Topology returns the underlying switch graph.
func (n *Network) Topology() *Topology { return n.topo }

// Stats returns the sniffer counters.
func (n *Network) Stats() Stats { return n.stats }

// ResetStats zeroes the counters (link horizons are preserved).
func (n *Network) ResetStats() { n.stats = Stats{} }

// LinkUtilisation returns per-link busy cycles, most-used first, as
// (linkIndex, cycles) pairs.
func (n *Network) LinkUtilisation() []struct {
	Link   Link
	Cycles uint64
} {
	out := make([]struct {
		Link   Link
		Cycles uint64
	}, len(n.topo.Links))
	for i := range n.topo.Links {
		out[i].Link = n.topo.Links[i]
		out[i].Cycles = n.linkUse[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

func (n *Network) flits(bytes uint32) uint64 {
	f := uint64((bytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes)
	if f == 0 {
		f = 1
	}
	return f
}

// traverse sends a packet of the given flit count along a route starting at
// cycle t, returning the arrival cycle of the packet tail.
func (n *Network) traverse(route []int, t uint64, flits uint64) uint64 {
	for _, li := range route {
		depart := t
		waited := false
		if n.linkBusy[li] > depart {
			depart = n.linkBusy[li]
			waited = true
			n.stats.WaitCycles += depart - t
		}
		depart += n.cfg.SwitchCycles
		// Wormhole back-pressure approximation: if the packet is longer
		// than the output buffer and the link was contended, the excess
		// flits stall behind the buffer.
		if waited && flits > n.cfg.BufferFlits {
			depart += flits - n.cfg.BufferFlits
		}
		arrive := depart + n.cfg.LinkCycles
		n.linkBusy[li] = arrive + flits - 1
		n.linkUse[li] += n.cfg.LinkCycles + flits - 1
		n.stats.HopsTraveled++
		n.stats.Transitions += flits * uint64(n.cfg.FlitBytes) * 4 // ~half the wires toggle
		t = arrive
	}
	return t + flits - 1
}

// TargetPort binds a destination switch (where a shared memory's network
// interface sits) and returns a mem.Interconnect for it.
func (n *Network) TargetPort(sw int) *TargetPort {
	if sw < 0 || sw >= n.topo.Switches {
		panic(fmt.Sprintf("noc %s: target switch %d out of range", n.topo.Name, sw))
	}
	return &TargetPort{net: n, sw: sw}
}

// TargetPort is a destination-bound view of the network implementing
// mem.Interconnect for one target device.
type TargetPort struct {
	net *Network
	sw  int
}

// Name implements mem.Interconnect.
func (p *TargetPort) Name() string { return p.net.topo.Name }

// Transaction implements mem.Interconnect: an OCP read or write burst from
// the initiator's network interface to this port's switch.
func (p *TargetPort) Transaction(initiator int, now uint64, bytes uint32, write bool, targetLatency uint64) uint64 {
	n := p.net
	src, ok := n.topo.InitiatorSwitch[initiator]
	if !ok {
		panic(fmt.Sprintf("noc %s: initiator %d not attached", n.topo.Name, initiator))
	}
	n.stats.Packets++
	if write {
		n.stats.OCPWrites++
	} else {
		n.stats.OCPReads++
	}
	const headerFlits = 1
	t := now
	if src == p.sw {
		// Local NI-to-NI access: only the request/response serialisation.
		t += n.cfg.SwitchCycles
	}
	if write {
		req := headerFlits + n.flits(bytes)
		n.stats.Flits += req
		t = n.traverse(n.routes[src][p.sw], t, req)
		t += targetLatency
		// Posted write: the ack is a single-flit response.
		n.stats.Packets++
		n.stats.Flits++
		t = n.traverse(n.routes[p.sw][src], t, 1)
	} else {
		req := uint64(headerFlits + 1) // header + address flit
		n.stats.Flits += req
		t = n.traverse(n.routes[src][p.sw], t, req)
		t += targetLatency
		resp := headerFlits + n.flits(bytes)
		n.stats.Packets++
		n.stats.Flits += resp
		t = n.traverse(n.routes[p.sw][src], t, resp)
	}
	return t - now
}

// ParseTopology builds a topology from a compact spec string, the textual
// front-end of the Xpipes-style generator:
//
//	"mesh:WxH"   a W×H 2D mesh
//	"ring:N"     an N-switch ring
//	"pair"       the two-switch Table 3 configuration
//
// Initiators are not attached; callers attach cores afterwards.
func ParseTopology(spec string) (*Topology, error) {
	switch {
	case spec == "pair":
		return &Topology{Name: "pair", Switches: 2,
			Links:           []Link{{0, 1}, {1, 0}},
			InitiatorSwitch: map[int]int{}}, nil
	case strings.HasPrefix(spec, "mesh:"):
		dims := strings.Split(strings.TrimPrefix(spec, "mesh:"), "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("noc: mesh spec %q, want mesh:WxH", spec)
		}
		w, err1 := strconv.Atoi(dims[0])
		h, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil || w < 1 || h < 1 || w*h < 2 {
			return nil, fmt.Errorf("noc: invalid mesh dimensions %q", spec)
		}
		return Mesh(w, h), nil
	case strings.HasPrefix(spec, "ring:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "ring:"))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("noc: invalid ring size %q", spec)
		}
		return Ring(n), nil
	}
	return nil, fmt.Errorf("noc: unknown topology spec %q", spec)
}
