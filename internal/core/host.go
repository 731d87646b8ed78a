// Package core implements the paper's primary contribution: the closed
// HW/SW co-emulation loop of Figure 5. The emulated MPSoC runs a workload
// while count-logging sniffers accumulate statistics; every sampling window
// the statistics are converted to per-component power values and sent (as
// framework MAC frames, or by direct call in in-process mode) to the SW
// thermal library, which integrates the RC network and feeds the new cell
// temperatures back; the temperature sensors then drive the run-time
// thermal-management policy, which programs the VPCM (e.g. DFS between
// 500 MHz and 100 MHz).
package core

import (
	"fmt"

	"thermemu/internal/etherlink"
	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
)

// fig6Floorplan is the die of the Figure 6 thermal experiment: four ARM11
// cores at 500 MHz (floorplan (b) of Figure 4).
func fig6Floorplan() *floorplan.Floorplan { return floorplan.FourARM11() }

// ThermalHost is the host-PC side of the framework: the floorplan-aware
// wrapper around the RC thermal model. Both endpoints construct the same
// geometry deterministically; only the thermal state lives on the host.
type ThermalHost struct {
	FP      *floorplan.Floorplan
	SiCells []thermal.Rect
	Model   *thermal.Model
	pm      *floorplan.PowerMap
	cellPw  []float64
}

// MaxCells bounds NewThermalHost's targetCells. The committed
// configurations grid at most 660 cells; the model's memory grows linearly
// with the count, and a target far past this is a corrupt or hostile
// scenario, which would otherwise allocate hundreds of megabytes before
// anything ran.
const MaxCells = 1 << 16

// NewThermalHost grids the floorplan into about targetCells thermal cells
// (multi-resolution, refined over the high-power-density components) plus a
// coarser copper-spreader grid, and builds the RC model. targetCells must
// lie in [1, MaxCells].
func NewThermalHost(fp *floorplan.Floorplan, targetCells int, opt thermal.Options) (*ThermalHost, error) {
	if targetCells < 1 || targetCells > MaxCells {
		return nil, fmt.Errorf("core: thermal cells must be between 1 and %d, got %d", MaxCells, targetCells)
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	si := fp.GridTargetCells(targetCells)
	cuN := 3
	cu := thermal.UniformGrid(fp.DieW, fp.DieH, cuN, cuN)
	model, err := thermal.NewModel(si, cu, opt)
	if err != nil {
		return nil, err
	}
	return &ThermalHost{
		FP:      fp,
		SiCells: si,
		Model:   model,
		pm:      floorplan.NewPowerMap(fp, si),
		cellPw:  make([]float64, len(si)),
	}, nil
}

// NumComponents returns the floorplan component count (the length of the
// power vectors the host expects).
func (h *ThermalHost) NumComponents() int { return len(h.FP.Components) }

// StepWindow injects one window of per-component power (watts) and
// integrates the thermal model over dt seconds. It returns the new
// bottom-surface cell temperatures.
func (h *ThermalHost) StepWindow(compPowerW []float64, dt float64) ([]float64, error) {
	return h.StepWindowInto(compPowerW, dt, nil)
}

// MaxWindowThermalS caps the thermal time one window may integrate, in
// seconds (the window's virtual duration times ThermalTimeScale). The
// committed configurations integrate at most a few seconds per window; a
// span far past this is a corrupt or hostile frame, whose solve would
// otherwise hold the host for hours (a WindowPs near 2^64 ps is 213 days).
const MaxWindowThermalS = 60

// StepWindowInto is StepWindow with a caller-owned temperature buffer: the
// result reuses tempsOut's backing array when its capacity suffices, so a
// loop that hands the same buffer back every window allocates nothing. A
// span dt that is negative, not finite or above MaxWindowThermalS is an
// error.
func (h *ThermalHost) StepWindowInto(compPowerW []float64, dt float64, tempsOut []float64) ([]float64, error) {
	if len(compPowerW) != len(h.FP.Components) {
		return nil, fmt.Errorf("core: power vector has %d entries, floorplan has %d components",
			len(compPowerW), len(h.FP.Components))
	}
	if !(dt >= 0 && dt <= MaxWindowThermalS) {
		return nil, fmt.Errorf("core: window spans %g s of thermal time, want 0 to %d s", dt, MaxWindowThermalS)
	}
	h.pm.CellPowers(compPowerW, h.cellPw)
	if err := h.Model.SetPowers(h.cellPw); err != nil {
		return nil, err
	}
	h.Model.Step(dt)
	return h.Model.TempsInto(tempsOut), nil
}

// SteadyState injects one vector of per-component power (watts) and relaxes
// the thermal model to its equilibrium, returning the sweep count and the
// bottom-surface cell temperatures. On thermal.ErrNoConvergence the
// temperatures are still returned alongside the error as a best-effort
// result, so callers can branch with errors.Is and keep the partial answer.
func (h *ThermalHost) SteadyState(compPowerW []float64, tol float64, maxSweeps int) (int, []float64, error) {
	if len(compPowerW) != len(h.FP.Components) {
		return 0, nil, fmt.Errorf("core: power vector has %d entries, floorplan has %d components",
			len(compPowerW), len(h.FP.Components))
	}
	h.pm.CellPowers(compPowerW, h.cellPw)
	if err := h.Model.SetPowers(h.cellPw); err != nil {
		return 0, nil, err
	}
	sweeps, err := h.Model.SteadyState(tol, maxSweeps)
	return sweeps, h.Model.Temps(), err
}

// ComponentTempsInto converts per-cell temperatures into per-component
// sensor readings (area-weighted over the covering cells), into a
// caller-owned output buffer reused when its capacity suffices.
func (h *ThermalHost) ComponentTempsInto(cellTemps, out []float64) []float64 {
	n := len(h.FP.Components)
	if cap(out) < n {
		out = make([]float64, n)
	}
	return h.pm.ComponentTemps(cellTemps, out[:n])
}

// ServeOptions tunes one Serve session.
type ServeOptions struct {
	// Stats, when non-nil, aggregates link metrics for this session (a
	// server shares one LinkStats across every connection it accepts).
	Stats *etherlink.LinkStats
	// Link tunes the host endpoint's NACK/resend-window protocol, as
	// Config.Link does the device's (zero values take the etherlink
	// defaults). RetryTimeout × MaxRetries is the idle timeout after which
	// a silent connection is dropped with etherlink.ErrLinkStalled.
	Link etherlink.ReliableConfig
}

// Serve runs the host side of the Ethernet protocol on a transport: it
// answers every statistics message with a temperature message for the same
// windows until a CtrlStop arrives or the transport closes, and ends the
// session with an error on any other message type or control op (the
// retired codes included). It acknowledges the
// stop before it returns (etherlink.Endpoint.AcceptStop). This is what
// cmd/thermserver runs on a TCP listener.
func (h *ThermalHost) Serve(tr etherlink.Transport) error {
	return h.ServeWith(tr, ServeOptions{})
}

// ServeWith is Serve with explicit link options.
func (h *ThermalHost) ServeWith(tr etherlink.Transport, opt ServeOptions) error {
	ep := etherlink.NewEndpoint(tr, etherlink.HostMAC, etherlink.DeviceMAC, opt.Link)
	if opt.Stats != nil {
		ep.SetLinkStats(opt.Stats)
	}
	// Session-lifetime scratch buffers: the per-window serve path reuses
	// them so a long run does not allocate per frame.
	var (
		pwBuf      []float64
		tempsBuf   []float64
		payloadBuf []byte
		batch      etherlink.StatsBatch
		reply      etherlink.TempsBatch
	)
	for {
		f, err := ep.Recv()
		if err != nil {
			return err
		}
		switch f.Type {
		case etherlink.MsgCtrl:
			c, err := etherlink.UnmarshalCtrl(f.Payload)
			if err != nil {
				return err
			}
			switch c.Op {
			case etherlink.CtrlStart:
				if int(c.Arg) != h.NumComponents() {
					return fmt.Errorf("core: device announces %d components, host floorplan has %d",
						c.Arg, h.NumComponents())
				}
				h.Model.Reset()
			case etherlink.CtrlStop:
				ep.AcceptStop()
				return nil
			default:
				return fmt.Errorf("core: device sent a %v control op, which the host does not serve", c.Op)
			}
		case etherlink.MsgStatsBatch:
			if err := etherlink.UnmarshalStatsBatchInto(&batch, f.Payload); err != nil {
				return err
			}
			if cap(reply.Windows) < len(batch.Windows) {
				reply.Windows = append(reply.Windows[:cap(reply.Windows)],
					make([]etherlink.Temps, len(batch.Windows)-cap(reply.Windows))...)
			}
			reply.Windows = reply.Windows[:len(batch.Windows)]
			// Windows are solved strictly in order, so the framing never
			// changes the thermal trajectory.
			for i := range batch.Windows {
				s, t := &batch.Windows[i], &reply.Windows[i]
				if cap(pwBuf) < len(s.PowerUW) {
					pwBuf = make([]float64, len(s.PowerUW))
				}
				pwBuf = pwBuf[:len(s.PowerUW)]
				for j, uw := range s.PowerUW {
					pwBuf[j] = float64(uw) * 1e-6
				}
				if tempsBuf, err = h.StepWindowInto(pwBuf, float64(s.WindowPs)*1e-12, tempsBuf); err != nil {
					return err
				}
				if cap(t.MilliK) < len(tempsBuf) {
					t.MilliK = make([]uint32, len(tempsBuf))
				}
				t.MilliK = t.MilliK[:len(tempsBuf)]
				for j, k := range tempsBuf {
					t.MilliK[j] = uint32(max(k, 0)*1000 + 0.5)
				}
				t.TimePs = uint64(h.Model.Time() * 1e12)
			}
			payloadBuf = reply.AppendPayload(payloadBuf[:0])
			if err := ep.Send(etherlink.MsgTempBatch, payloadBuf); err != nil {
				return err
			}
		default:
			// Includes the retired single-window and event-log codes of
			// older builds.
			return fmt.Errorf("core: device sent a %v frame, which the host does not serve", f.Type)
		}
	}
}
