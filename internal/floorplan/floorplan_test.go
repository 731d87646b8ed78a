package floorplan

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"thermemu/internal/power"
	"thermemu/internal/thermal"
)

func TestFourARM7Valid(t *testing.T) {
	fp := FourARM7()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 quadrants x 4 blocks + shared + 4 switches = 21 components.
	if len(fp.Components) != 21 {
		t.Errorf("components = %d", len(fp.Components))
	}
	if u := fp.Utilisation(); u <= 0.3 || u > 1 {
		t.Errorf("utilisation = %v", u)
	}
	// Component areas match Table 1 implied areas.
	i := fp.Find("core0")
	if i < 0 {
		t.Fatal("core0 missing")
	}
	want := power.ARM7.AreaM2()
	if got := fp.Components[i].Rect.Area(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("core0 area = %g, want %g", got, want)
	}
}

func TestFourARM11Valid(t *testing.T) {
	fp := FourARM11()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	// The ARM11 die must be larger (3 mm² cores vs 0.18 mm²).
	if fp.DieArea() <= FourARM7().DieArea() {
		t.Error("ARM11 die not larger than ARM7 die")
	}
	// Per-core ownership: exactly 4 blocks per core.
	for core := 0; core < 4; core++ {
		if got := len(fp.OfCore(core)); got != 4 {
			t.Errorf("core %d owns %d blocks", core, got)
		}
	}
	if len(fp.OfCore(-1)) != 5 {
		t.Errorf("shared blocks = %d", len(fp.OfCore(-1)))
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	bad := &Floorplan{Name: "b", DieW: 1e-3, DieH: 1e-3, Components: []Component{
		{Name: "x", Rect: thermal.Rect{X: 0, Y: 0, W: 2e-3, H: 1e-4}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("component outside die accepted")
	}
	over := &Floorplan{Name: "o", DieW: 1e-3, DieH: 1e-3, Components: []Component{
		{Name: "a", Rect: thermal.Rect{X: 0, Y: 0, W: 5e-4, H: 5e-4}},
		{Name: "b", Rect: thermal.Rect{X: 2e-4, Y: 2e-4, W: 5e-4, H: 5e-4}},
	}}
	if err := over.Validate(); err == nil {
		t.Error("overlap accepted")
	}
	if err := (&Floorplan{Name: "z"}).Validate(); err == nil {
		t.Error("empty die accepted")
	}
}

func TestGridRefinedCellCount(t *testing.T) {
	fp := FourARM7()
	g := fp.GridRefined(4, 4, 4)
	if len(g) != 16+3*4 {
		t.Errorf("cells = %d, want 28", len(g))
	}
	// Area is preserved.
	var a float64
	for _, c := range g {
		a += c.Area()
	}
	if math.Abs(a-fp.DieArea())/fp.DieArea() > 1e-9 {
		t.Errorf("grid area %g != die %g", a, fp.DieArea())
	}
	// Refined cells are the high-density ones: at least one refined cell
	// overlaps a core.
	fine := 0
	for _, c := range g {
		if c.W < fp.DieW/4-1e-12 {
			fine++
		}
	}
	if fine != 16 {
		t.Errorf("fine cells = %d, want 16", fine)
	}
}

func TestGridTargetCells(t *testing.T) {
	fp := FourARM7()
	for _, target := range []int{28, 660, 100} {
		g := fp.GridTargetCells(target)
		if len(g) != target {
			t.Errorf("target %d: got %d cells", target, len(g))
		}
	}
}

func TestPowerMapConservesPower(t *testing.T) {
	fp := FourARM7()
	cells := fp.GridRefined(6, 6, 6)
	pm := NewPowerMap(fp, cells)
	powers := make([]float64, len(fp.Components))
	var total float64
	for i, c := range fp.Components {
		powers[i] = c.Model.MaxPowerW
		total += powers[i]
	}
	cellP := pm.CellPowers(powers, nil)
	var sum float64
	for _, p := range cellP {
		sum += p
	}
	if math.Abs(sum-total)/total > 1e-9 {
		t.Errorf("cell power sum %g != component total %g", sum, total)
	}
	// Reuse of the out slice.
	again := pm.CellPowers(powers, cellP)
	if &again[0] != &cellP[0] {
		t.Error("out slice not reused")
	}
}

func TestPowerMapLocalisesPower(t *testing.T) {
	fp := FourARM7()
	cells := fp.Grid(8, 8)
	pm := NewPowerMap(fp, cells)
	powers := make([]float64, len(fp.Components))
	ci := fp.Find("core0")
	powers[ci] = 1.0
	cellP := pm.CellPowers(powers, nil)
	// Power lands only in cells overlapping core0.
	r := fp.Components[ci].Rect
	for i, c := range cells {
		if cellP[i] > 0 && c.Overlap(r) == 0 {
			t.Errorf("cell %d received power without overlapping core0", i)
		}
	}
}

func TestComponentTemp(t *testing.T) {
	fp := FourARM7()
	cells := fp.Grid(4, 4)
	temps := make([]float64, len(cells))
	for i := range temps {
		temps[i] = 300 + float64(i)
	}
	ct := ComponentTemp(fp, cells, temps, fp.Find("core0"))
	if ct < 300 || ct > 300+float64(len(cells)) {
		t.Errorf("component temp = %v out of range", ct)
	}
}

// TestComponentTempsMatchComponentTemp holds the set-up overlap table to
// the per-call reference, bit for bit, on the 28- and 150-cell grids of
// both floorplans under random temperatures.
func TestComponentTempsMatchComponentTemp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fp := range []*Floorplan{FourARM7(), FourARM11()} {
		for _, target := range []int{28, 150} {
			cells := fp.GridTargetCells(target)
			pm := NewPowerMap(fp, cells)
			pairs := 0
			for _, s := range pm.sensors {
				pairs += len(s.cells)
			}
			t.Logf("%s, %d cells: %d overlapping pairs of %d", fp.Name, len(cells), pairs, len(cells)*len(fp.Components))
			temps := make([]float64, len(cells))
			out := make([]float64, len(fp.Components))
			for trial := 0; trial < 20; trial++ {
				for i := range temps {
					temps[i] = 300 + 150*rng.Float64()
				}
				pm.ComponentTemps(temps, out)
				for ki := range fp.Components {
					if want := ComponentTemp(fp, cells, temps, ki); math.Float64bits(out[ki]) != math.Float64bits(want) {
						t.Fatalf("%s, %d cells, %s: %v, want %v", fp.Name, len(cells), fp.Components[ki].Name, out[ki], want)
					}
				}
			}
		}
	}
}

func TestFloorplanDrivesThermalModel(t *testing.T) {
	// End-to-end: floorplan -> grid -> RC model -> steady state.
	fp := FourARM11()
	cells := fp.GridTargetCells(28)
	cu := thermal.UniformGrid(fp.DieW, fp.DieH, 3, 3)
	m, err := thermal.NewModel(cells, cu, thermal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPowerMap(fp, cells)
	powers := make([]float64, len(fp.Components))
	for i, c := range fp.Components {
		powers[i] = c.Model.Power(1.0, 500e6) // flat out at 500 MHz
	}
	if err := m.SetPowers(pm.CellPowers(powers, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyState(1e-8, 100000); err != nil {
		t.Fatal(err)
	}
	// 4 ARM11 flat-out at 500 MHz => 5x 1.5 W each: a serious rise over
	// ambient through a 20 K/W package. Sanity band only.
	rise := m.MaxTemp() - 300
	if rise < 50 {
		t.Errorf("implausibly small rise %.1f K for ~30 W", rise)
	}
	// Core cells are hotter than the shared memory.
	coreT := ComponentTemp(fp, cells, m.Temps(), fp.Find("core0"))
	memT := ComponentTemp(fp, cells, m.Temps(), fp.Find("sharedmem"))
	if coreT <= memT {
		t.Errorf("core (%.2f K) not hotter than shared memory (%.2f K)", coreT, memT)
	}
}

func TestShelfPackNoOverlap(t *testing.T) {
	sizes := []thermal.Rect{{W: 3, H: 2}, {W: 2, H: 1}, {W: 1, H: 4}, {W: 2, H: 2}, {W: 1, H: 1}}
	placed, h := shelfPack(sizes, 4)
	if h <= 0 {
		t.Fatal("no height")
	}
	for i := range placed {
		if placed[i].W != sizes[i].W || placed[i].H != sizes[i].H {
			t.Errorf("block %d resized", i)
		}
		for j := i + 1; j < len(placed); j++ {
			if placed[i].Overlap(placed[j]) > 0 {
				t.Errorf("blocks %d and %d overlap", i, j)
			}
		}
		if placed[i].X+placed[i].W > 4+1e-12 {
			t.Errorf("block %d exceeds width", i)
		}
		if placed[i].Y+placed[i].H > h+1e-12 {
			t.Errorf("block %d exceeds reported height", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	fp := FourARM11()
	var buf bytes.Buffer
	if err := fp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != fp.Name || len(got.Components) != len(fp.Components) {
		t.Fatalf("round trip lost structure: %s/%d", got.Name, len(got.Components))
	}
	for i := range fp.Components {
		a, b := fp.Components[i], got.Components[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.CoreID != b.CoreID {
			t.Errorf("component %d metadata differs", i)
		}
		if math.Abs(a.Rect.X-b.Rect.X) > 1e-12 || math.Abs(a.Rect.W-b.Rect.W) > 1e-12 {
			t.Errorf("component %d geometry differs", i)
		}
		if a.Model != b.Model {
			t.Errorf("component %d model differs: %+v vs %+v", i, a.Model, b.Model)
		}
	}
}

func TestReadJSONValidates(t *testing.T) {
	// Unknown model reference.
	bad := `{"name":"x","die_w_um":1000,"die_h_um":1000,
		"components":[{"name":"c","kind":"core","x_um":0,"y_um":0,"w_um":100,"h_um":100,
		"core_id":0,"model":"warp-core"}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("unknown model accepted")
	}
	// Component without any model.
	bad2 := `{"name":"x","die_w_um":1000,"die_h_um":1000,
		"components":[{"name":"c","kind":"core","x_um":0,"y_um":0,"w_um":100,"h_um":100,"core_id":0}]}`
	if _, err := ReadJSON(strings.NewReader(bad2)); err == nil {
		t.Error("model-less component accepted")
	}
	// Overlapping components fail Validate.
	bad3 := `{"name":"x","die_w_um":1000,"die_h_um":1000,"components":[
		{"name":"a","kind":"core","x_um":0,"y_um":0,"w_um":500,"h_um":500,"core_id":0,"model":"RISC32-ARM7"},
		{"name":"b","kind":"core","x_um":100,"y_um":100,"w_um":500,"h_um":500,"core_id":1,"model":"RISC32-ARM7"}]}`
	if _, err := ReadJSON(strings.NewReader(bad3)); err == nil {
		t.Error("overlapping JSON floorplan accepted")
	}
	// Unknown JSON fields are rejected (catches typos in hand-written plans).
	bad4 := `{"name":"x","die_w_um":1000,"die_h_um":1000,"zzz":1,"components":[]}`
	if _, err := ReadJSON(strings.NewReader(bad4)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestReadJSONCapsInput: a document past MaxJSONBytes is rejected with a
// *TooLargeError before the decoder buffers it all, while a document just
// under the cap still parses.
func TestReadJSONCapsInput(t *testing.T) {
	head := `{"name":"`
	tail := `","die_w_um":1000,"die_h_um":1000,"components":[]}`
	doc := func(nameLen int) string { return head + strings.Repeat("x", nameLen) + tail }

	_, err := ReadJSON(strings.NewReader(doc(MaxJSONBytes)))
	var tooLarge *TooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Limit != MaxJSONBytes {
		t.Fatalf("oversized document: err = %v, want *TooLargeError", err)
	}
	fp, err := ReadJSON(strings.NewReader(doc(MaxJSONBytes - len(head) - len(tail))))
	if err != nil {
		t.Fatalf("document at the cap rejected: %v", err)
	}
	if len(fp.Name) != MaxJSONBytes-len(head)-len(tail) {
		t.Fatalf("name length %d", len(fp.Name))
	}
}

func TestInlinePowerModelJSON(t *testing.T) {
	in := `{"name":"custom","die_w_um":2000,"die_h_um":2000,"components":[
		{"name":"dsp0","kind":"core","x_um":0,"y_um":0,"w_um":800,"h_um":800,"core_id":0,
		 "power":{"name":"DSP","max_power_w":0.2,"density_w_mm2":0.3,"ref_freq_mhz":200}}]}`
	fp, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m := fp.Components[0].Model
	if m.Name != "DSP" || m.MaxPowerW != 0.2 || m.RefFreqHz != 200e6 {
		t.Errorf("inline model = %+v", m)
	}
	// Inline models survive a write/read cycle.
	var buf bytes.Buffer
	if err := fp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Components[0].Model != m {
		t.Error("inline model lost on round trip")
	}
}

func TestWriteSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := FourARM7().WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Error("not an SVG document")
	}
	// One rect per component plus the die outline.
	if n := strings.Count(svg, "<rect"); n != len(FourARM7().Components)+1 {
		t.Errorf("rect count = %d", n)
	}
	if !strings.Contains(svg, "4xARM7") {
		t.Error("caption missing")
	}
}

func TestModelByName(t *testing.T) {
	if m, ok := ModelByName("RISC32-ARM11"); !ok || m != power.ARM11 {
		t.Error("ARM11 lookup failed")
	}
	if _, ok := ModelByName("nope"); ok {
		t.Error("phantom model")
	}
}
