package floorplan

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"thermemu/internal/power"
	"thermemu/internal/thermal"
)

// This file provides the floorplan interchange format: a JSON layout (all
// dimensions in micrometres, power models referenced by name or inlined)
// plus an SVG renderer for quick visual inspection — the "definition of the
// floorplanning to be evaluated" step of the paper's flow (Figure 5).

// modelRegistry maps Table 1 (and interconnect) model names for JSON use.
var modelRegistry = map[string]power.Model{
	power.ARM7.Name:       power.ARM7,
	power.ARM11.Name:      power.ARM11,
	power.DCache8K2W.Name: power.DCache8K2W,
	power.ICache8KDM.Name: power.ICache8KDM,
	power.Mem32K.Name:     power.Mem32K,
	power.NoCSwitch.Name:  power.NoCSwitch,
	power.SharedBus.Name:  power.SharedBus,
}

// ModelByName looks up a power model from the Table 1 registry.
func ModelByName(name string) (power.Model, bool) {
	m, ok := modelRegistry[name]
	return m, ok
}

type jsonModel struct {
	Name        string  `json:"name"`
	MaxPowerW   float64 `json:"max_power_w"`
	DensityWmm2 float64 `json:"density_w_mm2"`
	RefFreqMHz  float64 `json:"ref_freq_mhz"`
}

type jsonComponent struct {
	Name   string     `json:"name"`
	Kind   string     `json:"kind"`
	XUm    float64    `json:"x_um"`
	YUm    float64    `json:"y_um"`
	WUm    float64    `json:"w_um"`
	HUm    float64    `json:"h_um"`
	CoreID int        `json:"core_id"`
	Model  string     `json:"model,omitempty"` // registry reference
	Power  *jsonModel `json:"power,omitempty"` // inline model
}

type jsonFloorplan struct {
	Name       string          `json:"name"`
	DieWUm     float64         `json:"die_w_um"`
	DieHUm     float64         `json:"die_h_um"`
	Components []jsonComponent `json:"components"`
}

const um = 1e-6

// WriteJSON serialises the floorplan (micrometre units). Models present in
// the registry are written by name; others are inlined.
func (fp *Floorplan) WriteJSON(w io.Writer) error {
	out := jsonFloorplan{Name: fp.Name, DieWUm: fp.DieW / um, DieHUm: fp.DieH / um}
	for _, c := range fp.Components {
		jc := jsonComponent{
			Name: c.Name, Kind: string(c.Kind),
			XUm: c.Rect.X / um, YUm: c.Rect.Y / um,
			WUm: c.Rect.W / um, HUm: c.Rect.H / um,
			CoreID: c.CoreID,
		}
		if reg, ok := modelRegistry[c.Model.Name]; ok && reg == c.Model {
			jc.Model = c.Model.Name
		} else {
			jc.Power = &jsonModel{Name: c.Model.Name, MaxPowerW: c.Model.MaxPowerW,
				DensityWmm2: c.Model.DensityWmm2, RefFreqMHz: c.Model.RefFreqHz / 1e6}
		}
		out.Components = append(out.Components, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MaxJSONBytes bounds the floorplan document ReadJSON accepts, so an
// untrusted or runaway input cannot grow the decoder without limit. The
// paper's floorplans take about 4 KB; a 1 MiB document holds thousands of
// components.
const MaxJSONBytes = 1 << 20

// TooLargeError reports a floorplan document longer than its Limit.
type TooLargeError struct{ Limit int64 }

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("floorplan: JSON document exceeds %d bytes", e.Limit)
}

// ReadJSON parses a floorplan written by WriteJSON (or authored by hand)
// and validates it. Documents longer than MaxJSONBytes are rejected with a
// *TooLargeError.
func ReadJSON(r io.Reader) (*Floorplan, error) {
	var in jsonFloorplan
	lr := &io.LimitedReader{R: r, N: MaxJSONBytes}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		if lr.N == 0 {
			return nil, &TooLargeError{Limit: MaxJSONBytes}
		}
		return nil, fmt.Errorf("floorplan: parse: %w", err)
	}
	fp := &Floorplan{Name: in.Name, DieW: in.DieWUm * um, DieH: in.DieHUm * um}
	for _, jc := range in.Components {
		c := Component{
			Name: jc.Name, Kind: ComponentKind(jc.Kind),
			Rect: thermal.Rect{X: jc.XUm * um, Y: jc.YUm * um,
				W: jc.WUm * um, H: jc.HUm * um},
			CoreID: jc.CoreID,
		}
		switch {
		case jc.Model != "":
			m, ok := modelRegistry[jc.Model]
			if !ok {
				return nil, fmt.Errorf("floorplan: component %s references unknown model %q", jc.Name, jc.Model)
			}
			c.Model = m
		case jc.Power != nil:
			c.Model = power.Model{Name: jc.Power.Name, MaxPowerW: jc.Power.MaxPowerW,
				DensityWmm2: jc.Power.DensityWmm2, RefFreqHz: jc.Power.RefFreqMHz * 1e6}
			if math.IsInf(c.Model.RefFreqHz, 0) {
				return nil, fmt.Errorf("floorplan: component %s reference frequency %g MHz overflows", jc.Name, jc.Power.RefFreqMHz)
			}
		default:
			return nil, fmt.Errorf("floorplan: component %s has neither a model reference nor inline power", jc.Name)
		}
		fp.Components = append(fp.Components, c)
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// kindFill maps component kinds to SVG fill colours.
var kindFill = map[ComponentKind]string{
	KindCore:      "#d9534f",
	KindICache:    "#f0ad4e",
	KindDCache:    "#ffd97a",
	KindPrivMem:   "#5bc0de",
	KindSharedMem: "#3b7dd8",
	KindNoCSwitch: "#5cb85c",
	KindBus:       "#777777",
}

// WriteSVG renders the floorplan as a standalone SVG drawing (the visual
// counterpart of the paper's Figure 4).
func (fp *Floorplan) WriteSVG(w io.Writer) error {
	const pxPerM = 200_000 // 0.2 px per µm
	width := fp.DieW * pxPerM
	height := fp.DieH * pxPerM
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.2f %.2f">`+"\n",
		math.Ceil(width), math.Ceil(height+20), width, height+20)
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.2f" height="%.2f" fill="#f4f1ea" stroke="#333"/>`+"\n",
		width, height)
	for _, c := range fp.Components {
		fill := kindFill[c.Kind]
		if fill == "" {
			fill = "#cccccc"
		}
		x, y := c.Rect.X*pxPerM, c.Rect.Y*pxPerM
		cw, ch := c.Rect.W*pxPerM, c.Rect.H*pxPerM
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="#222" stroke-width="0.5"/>`+"\n",
			x, y, cw, ch, fill)
		fontSize := math.Min(ch*0.3, cw/float64(len(c.Name))*1.6)
		if fontSize >= 3 {
			fmt.Fprintf(&b, `<text x="%.2f" y="%.2f" font-size="%.1f" font-family="sans-serif" text-anchor="middle">%s</text>`+"\n",
				x+cw/2, y+ch/2+fontSize/3, fontSize, c.Name)
		}
	}
	fmt.Fprintf(&b, `<text x="2" y="%.2f" font-size="8" font-family="sans-serif">%s — %.2f x %.2f mm, %.0f%% utilised</text>`+"\n",
		height+12, fp.Name, fp.DieW*1e3, fp.DieH*1e3, 100*fp.Utilisation())
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
