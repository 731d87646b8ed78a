package trace

import (
	"encoding/json"
	"io"

	"thermemu/internal/core"
	"thermemu/internal/floorplan"
	"thermemu/internal/golden"
)

// RunSummary is the structured per-run result document: the scalar outcome
// of one co-emulation (final temperatures, throughput, digest, thermal lag)
// in a stable JSON shape. cmd/thermemu -json emits it and the sweep worker
// protocol ships it back to the coordinator, so a run's result is the same
// object whether it ran standalone or as one point of a grid.
type RunSummary struct {
	Workload      string             `json:"workload"`
	Cycles        uint64             `json:"cycles"`
	VirtualS      float64            `json:"virtual_s"`
	WallS         float64            `json:"wall_s"`
	Windows       int                `json:"windows"`
	WindowsPerS   float64            `json:"windows_per_s"`
	MaxTempK      float64            `json:"max_temp_k"`
	FinalTempK    map[string]float64 `json:"final_temp_k,omitempty"`
	DFSEvents     int                `json:"dfs_events"`
	ThermalLagPs  uint64             `json:"thermal_lag_ps"`
	Digest        string             `json:"digest,omitempty"`
	DigestRecords int                `json:"digest_records,omitempty"`
	Done          bool               `json:"done"`
	Partial       bool               `json:"partial"`
}

// NewRunSummary condenses a finished run. windows is the committed sampling
// window count (len(res.Samples) unless samples were discarded); tr may be
// nil when no digest was accumulated.
func NewRunSummary(workload string, fp *floorplan.Floorplan, res *core.Result, windows int, tr *golden.Trace) RunSummary {
	sum := RunSummary{
		Workload:     workload,
		Cycles:       res.Cycles,
		VirtualS:     res.VirtualS,
		WallS:        res.Wall.Seconds(),
		Windows:      windows,
		MaxTempK:     res.MaxTempK,
		DFSEvents:    res.DFSEvents,
		ThermalLagPs: res.ThermalLagPs,
		Done:         res.Done,
		Partial:      res.Partial,
	}
	if res.Wall > 0 {
		sum.WindowsPerS = float64(windows) / res.Wall.Seconds()
	}
	if tr != nil {
		sum.Digest = tr.Hex()
		sum.DigestRecords = tr.Len()
	}
	if n := len(res.Samples); n > 0 && fp != nil {
		last := res.Samples[n-1]
		sum.FinalTempK = map[string]float64{}
		for i, c := range fp.Components {
			if i < len(last.CompTempK) {
				sum.FinalTempK[c.Name] = last.CompTempK[i]
			}
		}
	}
	return sum
}

// WriteRunJSON writes the full structured run document: the run summary
// plus the per-window sample series, each window's temperatures and powers
// keyed by component name.
func WriteRunJSON(w io.Writer, fp *floorplan.Floorplan, sum RunSummary, samples []core.Sample) error {
	run := jsonRun{Floorplan: fp.Name, Run: sum}
	for _, s := range samples {
		run.Samples = append(run.Samples, makeJSONSample(fp, s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(run)
}
