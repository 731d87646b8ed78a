package etherlink

import (
	"encoding/binary"
	"fmt"
)

// Stats is one sampling window of a statistics message: the power computed
// for each floorplan component over the window, plus the emulated cycle and
// virtual-time position of the window.
type Stats struct {
	Cycle    uint64   // virtual platform cycle at the end of the window
	WindowPs uint64   // virtual duration of the window
	PowerUW  []uint32 // per-component power in microwatts
}

// Temps is one window of a temperature message: the new temperature of
// every thermal cell, fed back to the emulated temperature sensors.
type Temps struct {
	TimePs uint64   // virtual time the temperatures correspond to
	MilliK []uint32 // per-cell temperature in millikelvin
}

// Kelvin returns cell i's temperature in kelvin.
func (t *Temps) Kelvin(i int) float64 { return float64(t.MilliK[i]) / 1000 }

// StatsBatch is the device-to-host statistics message: 1..N consecutive
// sampling windows in one MsgStatsBatch frame. The loop ships whatever
// windows are queued when the link becomes free (one at depth 0); the host
// solves them in order, so the thermal trajectory never depends on how the
// windows were framed.
type StatsBatch struct {
	Windows []Stats
}

// statsEntryBytes returns the wire size of one batched stats window.
func statsEntryBytes(components int) int { return 8 + 8 + 2 + 4*components }

// MaxStatsBatch returns how many windows of the given component count fit
// one MAC frame.
func MaxStatsBatch(components int) int {
	n := (MaxPayload - 2) / statsEntryBytes(components)
	if n < 1 {
		n = 1
	}
	return n
}

// AppendPayload serialises the batch onto b (reusing its capacity) and
// returns the extended slice.
func (sb *StatsBatch) AppendPayload(b []byte) []byte {
	var u64 [8]byte
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(sb.Windows)))
	b = append(b, u16[:]...)
	for i := range sb.Windows {
		s := &sb.Windows[i]
		binary.LittleEndian.PutUint64(u64[:], s.Cycle)
		b = append(b, u64[:]...)
		binary.LittleEndian.PutUint64(u64[:], s.WindowPs)
		b = append(b, u64[:]...)
		binary.LittleEndian.PutUint16(u16[:], uint16(len(s.PowerUW)))
		b = append(b, u16[:]...)
		for _, p := range s.PowerUW {
			binary.LittleEndian.PutUint32(u64[:4], p)
			b = append(b, u64[:4]...)
		}
	}
	return b
}

// MarshalPayload serialises the batch payload.
func (sb *StatsBatch) MarshalPayload() []byte { return sb.AppendPayload(nil) }

// UnmarshalStatsBatchInto parses a batch payload into dst, reusing its
// Windows and per-window PowerUW backing arrays when capacities suffice.
func UnmarshalStatsBatchInto(dst *StatsBatch, b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("etherlink: stats-batch payload too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	if cap(dst.Windows) < n {
		dst.Windows = append(dst.Windows[:cap(dst.Windows)],
			make([]Stats, n-cap(dst.Windows))...)
	}
	dst.Windows = dst.Windows[:n]
	off := 2
	for i := 0; i < n; i++ {
		if len(b) < off+18 {
			return fmt.Errorf("etherlink: stats-batch window %d truncated at %d bytes", i, len(b))
		}
		w := &dst.Windows[i]
		w.Cycle = binary.LittleEndian.Uint64(b[off:])
		w.WindowPs = binary.LittleEndian.Uint64(b[off+8:])
		c := int(binary.LittleEndian.Uint16(b[off+16:]))
		off += 18
		if len(b) < off+4*c {
			return fmt.Errorf("etherlink: stats-batch window %d wants %d entries, payload ends at %d", i, c, len(b))
		}
		if cap(w.PowerUW) < c {
			w.PowerUW = make([]uint32, c)
		}
		w.PowerUW = w.PowerUW[:c]
		for j := 0; j < c; j++ {
			w.PowerUW[j] = binary.LittleEndian.Uint32(b[off+4*j:])
		}
		off += 4 * c
	}
	if off != len(b) {
		return fmt.Errorf("etherlink: stats-batch payload has %d trailing bytes", len(b)-off)
	}
	return nil
}

// UnmarshalStatsBatch parses a batch payload.
func UnmarshalStatsBatch(b []byte) (*StatsBatch, error) {
	sb := &StatsBatch{}
	if err := UnmarshalStatsBatchInto(sb, b); err != nil {
		return nil, err
	}
	return sb, nil
}

// TempsBatch is the host-to-device temperature message answering a
// StatsBatch: one Temps entry per solved window, in order.
type TempsBatch struct {
	Windows []Temps
}

// tempsEntryBytes returns the wire size of one temperature window.
func tempsEntryBytes(cells int) int { return 8 + 2 + 4*cells }

// MaxTempsBatch returns how many temperature windows of the given cell
// count fit one MAC frame as a TempsBatch reply. 0 means not even a
// one-window reply fits (see TempsTooLargeError).
func MaxTempsBatch(cells int) int {
	return (MaxPayload - 2) / tempsEntryBytes(cells)
}

// TempsTooLargeError reports a thermal grid whose per-window temperature
// reply cannot fit one frame, so no window could ever be answered.
type TempsTooLargeError struct {
	Cells int // thermal cells per window
}

func (e *TempsTooLargeError) Error() string {
	return fmt.Sprintf("etherlink: a %d-cell temperature reply needs %d payload bytes, over the %d-byte frame limit",
		e.Cells, 2+tempsEntryBytes(e.Cells), MaxPayload)
}

// AppendPayload serialises the batch onto b (reusing its capacity) and
// returns the extended slice.
func (tb *TempsBatch) AppendPayload(b []byte) []byte {
	var u64 [8]byte
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(tb.Windows)))
	b = append(b, u16[:]...)
	for i := range tb.Windows {
		t := &tb.Windows[i]
		binary.LittleEndian.PutUint64(u64[:], t.TimePs)
		b = append(b, u64[:]...)
		binary.LittleEndian.PutUint16(u16[:], uint16(len(t.MilliK)))
		b = append(b, u16[:]...)
		for _, v := range t.MilliK {
			binary.LittleEndian.PutUint32(u64[:4], v)
			b = append(b, u64[:4]...)
		}
	}
	return b
}

// MarshalPayload serialises the batch payload.
func (tb *TempsBatch) MarshalPayload() []byte { return tb.AppendPayload(nil) }

// UnmarshalTempsBatchInto parses a batch payload into dst, reusing its
// Windows and per-window MilliK backing arrays when capacities suffice.
func UnmarshalTempsBatchInto(dst *TempsBatch, b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("etherlink: temp-batch payload too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	if cap(dst.Windows) < n {
		dst.Windows = append(dst.Windows[:cap(dst.Windows)],
			make([]Temps, n-cap(dst.Windows))...)
	}
	dst.Windows = dst.Windows[:n]
	off := 2
	for i := 0; i < n; i++ {
		if len(b) < off+10 {
			return fmt.Errorf("etherlink: temp-batch window %d truncated at %d bytes", i, len(b))
		}
		t := &dst.Windows[i]
		t.TimePs = binary.LittleEndian.Uint64(b[off:])
		c := int(binary.LittleEndian.Uint16(b[off+8:]))
		off += 10
		if len(b) < off+4*c {
			return fmt.Errorf("etherlink: temp-batch window %d wants %d entries, payload ends at %d", i, c, len(b))
		}
		if cap(t.MilliK) < c {
			t.MilliK = make([]uint32, c)
		}
		t.MilliK = t.MilliK[:c]
		for j := 0; j < c; j++ {
			t.MilliK[j] = binary.LittleEndian.Uint32(b[off+4*j:])
		}
		off += 4 * c
	}
	if off != len(b) {
		return fmt.Errorf("etherlink: temp-batch payload has %d trailing bytes", len(b)-off)
	}
	return nil
}

// UnmarshalTempsBatch parses a batch payload.
func UnmarshalTempsBatch(b []byte) (*TempsBatch, error) {
	tb := &TempsBatch{}
	if err := UnmarshalTempsBatchInto(tb, b); err != nil {
		return nil, err
	}
	return tb, nil
}

// CtrlOp is a control operation code.
type CtrlOp uint8

// Control operations. Codes 3 and 4 named a virtual-clock freeze and its
// release, which no endpoint ever sent; they are retired, not reused, so a
// host refuses them as it refuses any other unknown op.
const (
	CtrlStart CtrlOp = iota + 1 // begin a run; Arg = component count
	CtrlStop                    // end of run; Arg = final cycle
)

// String returns the op name.
func (op CtrlOp) String() string {
	switch op {
	case CtrlStart:
		return "start"
	case CtrlStop:
		return "stop"
	}
	return fmt.Sprintf("ctrl(%d)", uint8(op))
}

// Ctrl is a control message.
type Ctrl struct {
	Op  CtrlOp
	Arg uint64
}

// MarshalPayload serialises the control payload.
func (c *Ctrl) MarshalPayload() []byte {
	b := make([]byte, 9)
	b[0] = byte(c.Op)
	binary.LittleEndian.PutUint64(b[1:], c.Arg)
	return b
}

// UnmarshalCtrl parses a control payload.
func UnmarshalCtrl(b []byte) (*Ctrl, error) {
	if len(b) != 9 {
		return nil, fmt.Errorf("etherlink: ctrl payload length %d, want 9", len(b))
	}
	return &Ctrl{Op: CtrlOp(b[0]), Arg: binary.LittleEndian.Uint64(b[1:])}, nil
}
