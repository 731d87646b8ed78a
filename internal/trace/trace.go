// Package trace exports co-emulation runs as standard engineering
// artifacts: VCD waveforms (viewable in GTKWave and any EDA waveform
// browser) and JSON sample records. The paper's framework exists to
// "rapidly extract a number of critical statistics"; this package gives
// those statistics the file formats the rest of an EDA flow expects.
package trace

import (
	"fmt"
	"io"
	"strings"

	"thermemu/internal/core"
	"thermemu/internal/floorplan"
)

// ---------------------------------------------------------------------------
// VCD
// ---------------------------------------------------------------------------

// vcdIDs yields compact VCD identifier codes (!, ", #, ... then pairs).
func vcdID(i int) string {
	const first, last = 33, 126 // printable ASCII range per the VCD spec
	n := last - first + 1
	if i < n {
		return string(rune(first + i))
	}
	return string(rune(first+i/n-1)) + string(rune(first+i%n))
}

// vcdVar is one declared waveform variable.
type vcdVar struct {
	name string
	kind string // "real" or "wire"
	id   string
}

// VCDWriter emits a Value Change Dump incrementally.
type VCDWriter struct {
	w      io.Writer
	vars   []vcdVar
	byName map[string]int
	header bool
	last   map[string]string // dedup identical consecutive values
	err    error
}

// NewVCD creates a writer targeting w with picosecond timescale.
func NewVCD(w io.Writer) *VCDWriter {
	return &VCDWriter{w: w, byName: map[string]int{}, last: map[string]string{}}
}

// AddReal declares a real-valued variable; must precede the first Time call.
func (v *VCDWriter) AddReal(name string) {
	v.add(name, "real")
}

// AddWire declares a 1-bit variable; must precede the first Time call.
func (v *VCDWriter) AddWire(name string) {
	v.add(name, "wire")
}

func (v *VCDWriter) add(name, kind string) {
	if v.header {
		v.err = fmt.Errorf("trace: variable %q declared after the header was emitted", name)
		return
	}
	if _, dup := v.byName[name]; dup {
		v.err = fmt.Errorf("trace: duplicate variable %q", name)
		return
	}
	v.byName[name] = len(v.vars)
	v.vars = append(v.vars, vcdVar{name: name, kind: kind, id: vcdID(len(v.vars))})
}

func (v *VCDWriter) emitHeader() {
	if v.header || v.err != nil {
		return
	}
	v.header = true
	fmt.Fprintf(v.w, "$date thermemu $end\n$version thermemu co-emulation trace $end\n")
	fmt.Fprintf(v.w, "$timescale 1ps $end\n$scope module thermemu $end\n")
	for _, vv := range v.vars {
		width := 1
		kind := vv.kind
		if kind == "real" {
			width = 64
		}
		fmt.Fprintf(v.w, "$var %s %d %s %s $end\n", kind, width, vv.id, sanitise(vv.name))
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
}

func sanitise(name string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, name)
}

// Time starts a new timestamp (picoseconds). Values set afterwards belong to
// this time until the next call.
func (v *VCDWriter) Time(ps uint64) {
	v.emitHeader()
	if v.err != nil {
		return
	}
	fmt.Fprintf(v.w, "#%d\n", ps)
}

// SetReal records a real variable's value at the current time.
func (v *VCDWriter) SetReal(name string, val float64) {
	v.set(name, fmt.Sprintf("r%g", val))
}

// SetBit records a wire's value at the current time.
func (v *VCDWriter) SetBit(name string, bit bool) {
	s := "0"
	if bit {
		s = "1"
	}
	v.set(name, s)
}

func (v *VCDWriter) set(name, encoded string) {
	if v.err != nil {
		return
	}
	i, ok := v.byName[name]
	if !ok {
		v.err = fmt.Errorf("trace: undeclared variable %q", name)
		return
	}
	if v.last[name] == encoded {
		return
	}
	v.last[name] = encoded
	if strings.HasPrefix(encoded, "r") {
		fmt.Fprintf(v.w, "%s %s\n", encoded, v.vars[i].id)
	} else {
		fmt.Fprintf(v.w, "%s%s\n", encoded, v.vars[i].id)
	}
}

// Err returns the first error encountered.
func (v *VCDWriter) Err() error { return v.err }

// WriteSamplesVCD dumps a co-emulation sample series as a VCD waveform:
// clock frequency, throttle state, peak temperature, per-component
// temperature and power.
func WriteSamplesVCD(w io.Writer, fp *floorplan.Floorplan, samples []core.Sample) error {
	v := NewVCD(w)
	v.AddReal("freq_mhz")
	v.AddWire("throttled")
	v.AddReal("max_temp_k")
	for _, c := range fp.Components {
		v.AddReal("temp_" + c.Name + "_k")
		v.AddReal("power_" + c.Name + "_w")
	}
	for _, s := range samples {
		v.Time(s.TimePs)
		v.SetReal("freq_mhz", float64(s.FreqHz)/1e6)
		v.SetBit("throttled", s.Throttled)
		v.SetReal("max_temp_k", s.MaxTempK)
		for i, c := range fp.Components {
			if i < len(s.CompTempK) {
				v.SetReal("temp_"+c.Name+"_k", s.CompTempK[i])
			}
			if i < len(s.CompPowerW) {
				v.SetReal("power_"+c.Name+"_w", s.CompPowerW[i])
			}
		}
	}
	return v.Err()
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

// jsonSample is the JSON wire form of one sampling window.
type jsonSample struct {
	TimeS     float64            `json:"time_s"`
	Cycle     uint64             `json:"cycle"`
	FreqMHz   float64            `json:"freq_mhz"`
	MaxTempK  float64            `json:"max_temp_k"`
	Throttled bool               `json:"throttled"`
	TempK     map[string]float64 `json:"temp_k"`
	PowerW    map[string]float64 `json:"power_w"`
}

// jsonRun is the JSON wire form of a whole run (WriteRunJSON): the
// structured summary and the sample series.
type jsonRun struct {
	Floorplan string       `json:"floorplan"`
	Run       RunSummary   `json:"run"`
	Samples   []jsonSample `json:"samples"`
}

// makeJSONSample converts one sample to its wire form, keyed by the
// floorplan's component names.
func makeJSONSample(fp *floorplan.Floorplan, s core.Sample) jsonSample {
	js := jsonSample{
		TimeS:     float64(s.TimePs) * 1e-12,
		Cycle:     s.Cycle,
		FreqMHz:   float64(s.FreqHz) / 1e6,
		MaxTempK:  s.MaxTempK,
		Throttled: s.Throttled,
		TempK:     map[string]float64{},
		PowerW:    map[string]float64{},
	}
	for i, c := range fp.Components {
		if i < len(s.CompTempK) {
			js.TempK[c.Name] = s.CompTempK[i]
		}
		if i < len(s.CompPowerW) {
			js.PowerW[c.Name] = s.CompPowerW[i]
		}
	}
	return js
}
