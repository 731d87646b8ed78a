package noc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeshStructure(t *testing.T) {
	m := Mesh(3, 2)
	if m.Switches != 6 {
		t.Fatalf("switches = %d", m.Switches)
	}
	// 3x2 mesh: horizontal 2*2, vertical 3*1 edges, each bidirectional.
	if len(m.Links) != (2*2+3*1)*2 {
		t.Errorf("links = %d", len(m.Links))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRingStructure(t *testing.T) {
	r := Ring(5)
	if len(r.Links) != 10 {
		t.Errorf("links = %d", len(r.Links))
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadTopologies(t *testing.T) {
	cases := []*Topology{
		{Name: "empty", Switches: 0},
		{Name: "badlink", Switches: 2, Links: []Link{{0, 5}}},
		{Name: "self", Switches: 2, Links: []Link{{0, 0}}},
		{Name: "disconnected", Switches: 3, Links: []Link{{0, 1}, {1, 0}}},
		{Name: "oneway", Switches: 2, Links: []Link{{0, 1}}},
		{Name: "badattach", Switches: 2, Links: []Link{{0, 1}, {1, 0}},
			InitiatorSwitch: map[int]int{0: 7}},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("topology %s accepted", c.Name)
		}
	}
}

func TestRoutesAreShortestPaths(t *testing.T) {
	m := Mesh(4, 4)
	n := MustNew(m, DefaultConfig())
	// Corner to corner: manhattan distance 6 hops.
	if got := len(n.routes[0][15]); got != 6 {
		t.Errorf("route length = %d, want 6", got)
	}
	// Adjacent: 1 hop.
	if got := len(n.routes[0][1]); got != 1 {
		t.Errorf("route length = %d, want 1", got)
	}
	// Routes are link-continuous.
	for src := 0; src < m.Switches; src++ {
		for dst := 0; dst < m.Switches; dst++ {
			if src == dst {
				continue
			}
			cur := src
			for _, li := range n.routes[src][dst] {
				if m.Links[li].From != cur {
					t.Fatalf("route %d->%d broken at link %d", src, dst, li)
				}
				cur = m.Links[li].To
			}
			if cur != dst {
				t.Fatalf("route %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestTransactionLatencyScalesWithDistance(t *testing.T) {
	m := Mesh(4, 1)
	m.Attach(0, 0)
	m.Attach(1, 2)
	n := MustNew(m, DefaultConfig())
	far := n.TargetPort(3)
	lNear := far.Transaction(1, 0, 4, false, 5)   // 1 hop
	lFar := far.Transaction(0, 1000, 4, false, 5) // 3 hops
	if lFar <= lNear {
		t.Errorf("far latency %d not above near latency %d", lFar, lNear)
	}
}

func TestWriteVsReadPacketisation(t *testing.T) {
	m := Mesh(2, 1)
	m.Attach(0, 0)
	n := MustNew(m, DefaultConfig())
	p := n.TargetPort(1)
	p.Transaction(0, 0, 16, true, 0)
	s := n.Stats()
	// Write: request header + 4 payload flits, response ack 1 flit.
	if s.Flits != 6 {
		t.Errorf("write flits = %d, want 6", s.Flits)
	}
	if s.OCPWrites != 1 || s.OCPReads != 0 {
		t.Errorf("OCP counters = %+v", s)
	}
	p.Transaction(0, 1000, 16, false, 0)
	// Read: request header+addr, response header + 4 data flits.
	if flits := n.Stats().Flits - s.Flits; flits != 7 {
		t.Errorf("read flits = %d, want 7", flits)
	}
}

func TestLinkContention(t *testing.T) {
	m := Mesh(2, 1)
	m.Attach(0, 0)
	m.Attach(1, 0)
	n := MustNew(m, DefaultConfig())
	p := n.TargetPort(1)
	l0 := p.Transaction(0, 0, 32, false, 0)
	l1 := p.Transaction(1, 0, 32, false, 0)
	if l1 <= l0 {
		t.Errorf("contended packet (%d) not delayed past first (%d)", l1, l0)
	}
	if n.Stats().WaitCycles == 0 {
		t.Error("no wait cycles recorded under contention")
	}
}

func TestLocalAccessCheapest(t *testing.T) {
	m := Mesh(3, 1)
	m.Attach(0, 0)
	n := MustNew(m, DefaultConfig())
	local := n.TargetPort(0).Transaction(0, 0, 4, false, 2)
	remote := n.TargetPort(2).Transaction(0, 1000, 4, false, 2)
	if local >= remote {
		t.Errorf("local access (%d) not cheaper than 2-hop (%d)", local, remote)
	}
}

func TestUnattachedInitiatorPanics(t *testing.T) {
	n := MustNew(Mesh(2, 1), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.TargetPort(1).Transaction(9, 0, 4, false, 0)
}

func TestLinkUtilisationReport(t *testing.T) {
	m := Mesh(2, 1)
	m.Attach(0, 0)
	n := MustNew(m, DefaultConfig())
	n.TargetPort(1).Transaction(0, 0, 64, true, 0)
	rep := n.LinkUtilisation()
	if len(rep) != len(m.Links) {
		t.Fatalf("report entries = %d", len(rep))
	}
	if rep[0].Cycles == 0 {
		t.Error("busiest link has zero cycles")
	}
	if rep[0].Cycles < rep[len(rep)-1].Cycles {
		t.Error("report not sorted descending")
	}
}

// Property: every transaction on a random mesh completes with latency at
// least hops*(switch+link) and the stats counters stay consistent.
func TestTransactionPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, h := 2+r.Intn(3), 1+r.Intn(3)
		m := Mesh(w, h)
		cores := 1 + r.Intn(4)
		for c := 0; c < cores; c++ {
			m.Attach(c, r.Intn(m.Switches))
		}
		n := MustNew(m, DefaultConfig())
		target := n.TargetPort(r.Intn(m.Switches))
		var now uint64
		for i := 0; i < 40; i++ {
			c := r.Intn(cores)
			bytes := uint32(4 * (1 + r.Intn(8)))
			hops := len(n.routes[m.InitiatorSwitch[c]][target.sw])
			lat := target.Transaction(c, now, bytes, r.Intn(2) == 0, 0)
			min := uint64(hops) * (n.cfg.SwitchCycles + n.cfg.LinkCycles)
			if lat < min {
				t.Logf("latency %d below floor %d", lat, min)
				return false
			}
			now += uint64(r.Intn(20))
		}
		s := n.Stats()
		return s.Packets >= 80 && s.Flits >= s.Packets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCustomTopologyTable3(t *testing.T) {
	// The Table 3 NoC: 2 switches with 4 in/out channels, 3-flit buffers.
	topo := &Topology{Name: "table3", Switches: 2,
		Links:           []Link{{0, 1}, {1, 0}},
		InitiatorSwitch: map[int]int{0: 0, 1: 0, 2: 1, 3: 1}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	n := MustNew(topo, DefaultConfig())
	lat := n.TargetPort(1).Transaction(0, 0, 4, false, 10)
	if lat == 0 {
		t.Error("zero latency")
	}
}

func TestParseTopology(t *testing.T) {
	m, err := ParseTopology("mesh:3x2")
	if err != nil || m.Switches != 6 {
		t.Errorf("mesh: %v, %v", m, err)
	}
	r, err := ParseTopology("ring:5")
	if err != nil || r.Switches != 5 {
		t.Errorf("ring: %v, %v", r, err)
	}
	p, err := ParseTopology("pair")
	if err != nil || p.Switches != 2 {
		t.Errorf("pair: %v, %v", p, err)
	}
	for _, bad := range []string{"mesh:3", "mesh:axb", "ring:1", "torus:2x2", "mesh:1x1"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
