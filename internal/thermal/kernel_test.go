package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// csrStepper is the transient solver as it ran on the CSR incidence index
// before the sliced-ELL kernel: passes over the cells in their own order,
// with its own next-sub-step buffer. It is the reference both kernel bodies
// are held to bit for bit. The float64 conversions keep its operation
// sequence unfused on every architecture; on amd64 the compiler never
// fuses, so they change nothing there. Its two-rate step takes the model's
// rate classes from the layout (a cell is fine when its slot lies in the
// fine slices) and otherwise knows nothing of slots.
type csrStepper struct {
	m     *Model
	tNext []float64
	mean  []float64
}

func newCSRStepper(m *Model) *csrStepper {
	return &csrStepper{m: m, tNext: make([]float64, len(m.t)), mean: make([]float64, len(m.t))}
}

// allCells selects every cell for substep.
func allCells(int) bool { return true }

// fine reports whether cell i steps at the fine rate of a two-rate mesh.
func (c *csrStepper) fine(i int) bool { return int(c.m.pos[i]) < ellLanes*c.m.fineSlices }

// substep advances the cells that pick selects by one explicit-Euler
// sub-step of h seconds, reading m.t and writing tNext, and reports whether
// any silicon cell it wrote drifted more than siKTolK from tAtK.
func (c *csrStepper) substep(h float64, pick func(int) bool) (stale bool) {
	m := c.m
	t, tn, tAtK := m.t, c.tNext, m.tAtK
	amb, nSi := m.props.AmbientK, m.nSi
	for i := range t {
		if !pick(i) {
			continue
		}
		ti := t[i]
		q := -m.conv[i] * (ti - amb)
		for k, e := int(m.nbrStart[i]), int(m.nbrStart[i+1]); k < e; k++ {
			q += float64(m.edgeG[m.nbrEdge[k]] * (t[m.nbrCell[k]] - ti))
		}
		if i < len(m.pw) {
			q += m.pw[i]
		}
		next := ti + float64(h*q*(1/m.capC[i]))
		tn[i] = next
		if i < nSi {
			if d := next - tAtK[i]; d > siKTolK || d < -siKTolK {
				stale = true
			}
		}
	}
	return stale
}

// macroStep is Model.macroStep on the CSR reference.
func (c *csrStepper) macroStep(H float64) (stale bool) {
	m := c.m
	coarse := func(i int) bool { return !c.fine(i) }
	copy(c.mean, m.t)
	c.substep(H/2, c.fine)
	for i := range m.t {
		if c.fine(i) {
			m.t[i] = c.tNext[i]
		}
	}
	fineStale := c.substep(H/2, c.fine)
	for i := range m.t {
		if c.fine(i) {
			m.t[i] = (c.mean[i] + m.t[i]) * 0.5
		}
	}
	coarseStale := c.substep(H, coarse)
	m.t, c.tNext = c.tNext, m.t
	return fineStale || coarseStale
}

// step is Model.Step on the CSR reference.
func (c *csrStepper) step(dt float64) {
	m := c.m
	h, macro := m.stableDt()
	stale := m.conductancesStale(siKTolK)
	for remaining := dt; remaining > 1e-15; {
		if stale {
			m.updateConductances()
			h, macro = m.stableDt()
		}
		if m.fineSlices > 0 && macro <= remaining {
			stale = c.macroStep(macro)
			remaining -= macro
		} else {
			hs := min(h, remaining)
			stale = c.substep(hs, allCells)
			m.t, c.tNext = c.tNext, m.t
			remaining -= hs
		}
	}
	m.time += dt
}

// kernelBodies lists the bodies this machine can run: the Go body always,
// the AVX2 body where the CPU has it.
func kernelBodies() map[string]substepBody {
	bodies := map[string]substepBody{"go": (*ellKernel).substepGo}
	if avx2Body != nil {
		bodies["avx2"] = avx2Body
	}
	return bodies
}

// sameBits describes the first cell whose temperature differs in its bits.
func sameBits(got, want []float64) string {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("cell %d %.17g, CSR reference %.17g", i, got[i], want[i])
		}
	}
	return ""
}

// kernelCase builds one reference model and one model per kernel body on
// the same mesh.
type kernelCase struct {
	ref    *csrStepper
	models map[string]*Model
}

func newKernelCase(t testing.TB, si, cu []Rect, nzSi int) kernelCase {
	t.Helper()
	opt := DefaultOptions()
	opt.NzSi = nzSi
	ref, err := NewModel(si, cu, opt)
	if err != nil {
		t.Fatal(err)
	}
	kc := kernelCase{ref: newCSRStepper(ref), models: map[string]*Model{}}
	for name, body := range kernelBodies() {
		m, err := NewModel(si, cu, opt)
		if err != nil {
			t.Fatal(err)
		}
		m.body = body
		kc.models[name] = m
	}
	return kc
}

// window injects pw into every model, steps them all by dt and reports the
// first model that left the reference's bits.
func (kc kernelCase) window(pw []float64, dt float64) string {
	if err := kc.ref.m.SetPowers(pw); err != nil {
		return err.Error()
	}
	kc.ref.step(dt)
	want := kc.ref.m.AllTemps()
	for name, m := range kc.models {
		if err := m.SetPowers(pw); err != nil {
			return err.Error()
		}
		m.Step(dt)
		if d := sameBits(m.AllTemps(), want); d != "" {
			return name + ": " + d
		}
		if m.Time() != kc.ref.m.Time() {
			return fmt.Sprintf("%s: time %v, reference %v", name, m.Time(), kc.ref.m.Time())
		}
	}
	return ""
}

// TestSubstepKernelsMatchCSR holds both kernel bodies to the CSR reference
// bit for bit over random multi-resolution meshes with one and two silicon
// sub-layers, single-rate and two-rate, through heating, cooling and the
// conductance refreshes they trigger.
func TestSubstepKernelsMatchCSR(t *testing.T) {
	unaligned, twoRate := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		si, cu := randomMesh(rng)
		kc := newKernelCase(t, si, cu, 1+int(seed%2))
		if kc.ref.m.NumCells()%ellLanes != 0 {
			unaligned++
		}
		if kc.ref.m.fineSlices > 0 {
			twoRate++
		}
		pw := make([]float64, kc.ref.m.NumSurfaceCells())
		refreshes := 0
		for w := 0; w < 30; w++ {
			for i := range pw {
				pw[i] = 0
				if w%10 < 6 { // six heating windows, four cooling
					pw[i] = 0.2 * rng.Float64()
				}
			}
			at := kc.ref.m.tAtK[0]
			if d := kc.window(pw, 0.02); d != "" {
				t.Fatalf("seed %d window %d: %s", seed, w, d)
			}
			if kc.ref.m.tAtK[0] != at {
				refreshes++
			}
		}
		if refreshes < 5 {
			t.Fatalf("seed %d: %d windows refreshed the conductances; the trace must drive refreshes", seed, refreshes)
		}
	}
	if unaligned == 0 {
		t.Fatal("every mesh has a multiple of 4 cells: no padded slice was exercised")
	}
	if twoRate == 0 {
		t.Fatal("no mesh split its cells by rate: the macro-step was not exercised")
	}
}

// TestTwoRateLayout pins the rate split the two-rate Step rests on, on the
// link-host mesh and on FuzzNewModel's refined-grid seed (whose copper grid
// is the 2×2 tiling of its bounding box): every cell with τ below 2·τ_min
// at ambient sits in the leading fine slices, no cell past them has τ
// below the macro-step, and the fine sub-step is at most τ_min.
func TestTwoRateLayout(t *testing.T) {
	si150, cu150 := mesh150()
	seed := fuzzRects(twoRateSeed)
	for _, c := range []struct {
		name   string
		si, cu []Rect
		fine   int
	}{
		{"mesh150", si150, cu150, 2},
		{"fuzz seed", seed, UniformGrid(4e-3, 3e-3, 2, 2), 1},
	} {
		m, err := NewModel(c.si, c.cu, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if m.fineSlices != c.fine {
			t.Fatalf("%s: %d fine slices, want %d", c.name, m.fineSlices, c.fine)
		}
		tauMin, macro := m.stableDt()
		if macro/2 > tauMin {
			t.Errorf("%s: fine sub-step %g s exceeds τ_min %g s", c.name, macro/2, tauMin)
		}
		for p, cell := range m.perm {
			tau := m.capC[cell] / m.sumG[cell]
			if p >= ellLanes*m.fineSlices && tau < macro {
				t.Errorf("%s: coarse slot %d has τ %g s, below the macro-step %g s", c.name, p, tau, macro)
			}
			if p >= ellLanes*m.fineSlices && tau < 2*tauMin {
				t.Errorf("%s: fine cell %d (τ %g s) lies in coarse slot %d", c.name, cell, tau, p)
			}
		}
	}
}

// TestSubstepKernelPadding pins the layout invariants the exactness
// argument rests on: every padded entry has conductance 0 and points at its
// own slot, every padding lane is inert, and each lane keeps its cell's CSR
// neighbour order.
func TestSubstepKernelPadding(t *testing.T) {
	si, cu := mesh150()
	opt := DefaultOptions()
	opt.NzSi = 2
	m, err := NewModel(si, cu, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := &m.ell
	n := m.NumCells()
	for s := 0; s+1 < len(k.rows); s++ {
		for l := 0; l < ellLanes; l++ {
			p := ellLanes*s + l
			r := int(k.rows[s]) + l
			if p < n {
				c := m.perm[p]
				if r != m.ellEntry(int(c)) {
					t.Fatalf("slot %d: cell %d's first entry is %d, want %d", p, c, m.ellEntry(int(c)), r)
				}
				for e := m.nbrStart[c]; e < m.nbrStart[c+1]; e++ {
					if k.idx[r] != m.pos[m.nbrCell[e]] || k.g[r] != m.edgeG[m.nbrEdge[e]] {
						t.Fatalf("slot %d entry %d: not cell %d's CSR entry %d", p, r, c, e)
					}
					r += ellLanes
				}
			} else if k.invCap[p] != 0 || k.negConv[p] != 0 || k.pw[p] != 0 {
				t.Fatalf("padding lane %d is not inert", p)
			}
			for ; r < int(k.rows[s+1]); r += ellLanes {
				if k.g[r] != 0 || int(k.idx[r]) != p {
					t.Fatalf("padded entry %d of slot %d: g %v, slot %d", r, p, k.g[r], k.idx[r])
				}
			}
		}
	}
}

// FuzzSubstepKernel runs one sub-step from fuzzed temperatures and powers
// on every body and on the CSR reference and requires the same bits and
// the same drift verdict, then steps every model through one window.
func FuzzSubstepKernel(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), []byte{0, 40, 200, 7, 99})
	f.Add(int64(7), uint8(2), uint8(3), []byte{255, 255, 0, 0})
	f.Add(int64(42), uint8(1), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, nzSi, span uint8, heat []byte) {
		rng := rand.New(rand.NewSource(seed))
		si, cu := randomMesh(rng)
		kc := newKernelCase(t, si, cu, 1+int(nzSi%2))
		ref := kc.ref.m
		// Physical temperatures: ambient plus up to 100 K, the refresh
		// point up to 1 K away so both drift verdicts occur.
		temps := make([]float64, ref.NumCells())
		for i := range temps {
			b := rng.Float64()
			if i < len(heat) {
				b = float64(heat[i]) / 256
			}
			temps[i] = ref.props.AmbientK + 100*b
		}
		pw := make([]float64, ref.NumSurfaceCells())
		for i := range pw {
			pw[i] = 0.3 * rng.Float64()
		}
		drift := rng.Float64()
		tau, _ := ref.stableDt()
		h := 0.5 * tau
		load := func(m *Model) {
			copy(m.t, temps)
			m.updateConductances()
			for i := range m.t {
				m.t[i] += drift * float64(i%3-1)
			}
			if err := m.SetPowers(pw); err != nil {
				t.Fatal(err)
			}
		}
		load(ref)
		wantStale := kc.ref.substep(h, allCells)
		for name, m := range kc.models {
			load(m)
			m.scatterIn()
			if stale := m.substepAll(h); stale != wantStale {
				t.Fatalf("%s: stale %v, reference %v", name, stale, wantStale)
			}
			m.gatherOut()
			if d := sameBits(m.t, kc.ref.tNext); d != "" {
				t.Fatalf("%s: %s", name, d)
			}
		}
		ref.t, kc.ref.tNext = kc.ref.tNext, ref.t
		if d := kc.window(pw, float64(1+int(span%4))*0.005); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkModelStep times Model.Step on the 37-cell Figure 6 mesh (28
// silicon cells over a 3×3 spreader) and the 159-cell link-host mesh, whose
// eight refined cells step at the fine rate. In the toggle case the power
// changes every 50 ms Step, so conductance refreshes recur far more often
// than in a closed loop; in the window case it changes once per 0.4 s
// window, as in the hostlink loop. It reports the cost of one cell update
// and the cell updates one Step takes.
func BenchmarkModelStep(b *testing.B) {
	si150, cu150 := mesh150()
	for _, c := range []struct {
		si, cu []Rect
	}{
		{UniformGrid(4e-3, 4e-3, 7, 4), UniformGrid(4e-3, 4e-3, 3, 3)},
		{si150, cu150},
	} {
		for _, power := range []struct {
			name  string
			every int // Steps per power level
		}{{"toggle", 1}, {"window", 8}} {
			b.Run(fmt.Sprintf("cells=%d/power=%s", len(c.si)+len(c.cu), power.name), func(b *testing.B) {
				m, err := NewModel(c.si, c.cu, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				hot := make([]float64, m.NumSurfaceCells())
				for i := range hot {
					hot[i] = 4.0 / float64(len(hot))
				}
				cold := make([]float64, len(hot))
				updates := CountCellUpdates(m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pw := hot
					if i/power.every%2 == 1 {
						pw = cold
					}
					if err := m.SetPowers(pw); err != nil {
						b.Fatal(err)
					}
					m.Step(0.05)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(*updates), "ns/cell-update")
				b.ReportMetric(float64(*updates)/float64(b.N), "cell-updates/op")
			})
		}
	}
}
