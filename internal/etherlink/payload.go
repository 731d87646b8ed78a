package etherlink

import (
	"encoding/binary"
	"fmt"

	"thermemu/internal/sniffer"
)

// Stats is the device-to-host statistics message: the power computed for
// each floorplan component over one sampling window, plus the emulated
// cycle and virtual-time position of the window.
type Stats struct {
	Cycle    uint64   // virtual platform cycle at the end of the window
	WindowPs uint64   // virtual duration of the window
	PowerUW  []uint32 // per-component power in microwatts
}

// MarshalPayload serialises the statistics payload.
func (s *Stats) MarshalPayload() []byte {
	return s.AppendPayload(nil)
}

// AppendPayload serialises the statistics payload onto b (reusing its
// capacity) and returns the extended slice.
func (s *Stats) AppendPayload(b []byte) []byte {
	off := len(b)
	n := 8 + 8 + 2 + 4*len(s.PowerUW)
	if cap(b) < off+n {
		nb := make([]byte, off+n, off+n)
		copy(nb, b)
		b = nb
	} else {
		b = b[:off+n]
	}
	binary.LittleEndian.PutUint64(b[off:], s.Cycle)
	binary.LittleEndian.PutUint64(b[off+8:], s.WindowPs)
	binary.LittleEndian.PutUint16(b[off+16:], uint16(len(s.PowerUW)))
	for i, p := range s.PowerUW {
		binary.LittleEndian.PutUint32(b[off+18+4*i:], p)
	}
	return b
}

// UnmarshalStats parses a statistics payload.
func UnmarshalStats(b []byte) (*Stats, error) {
	if len(b) < 18 {
		return nil, fmt.Errorf("etherlink: stats payload too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[16:18]))
	if len(b) != 18+4*n {
		return nil, fmt.Errorf("etherlink: stats payload length %d, want %d entries", len(b), n)
	}
	s := &Stats{
		Cycle:    binary.LittleEndian.Uint64(b[0:8]),
		WindowPs: binary.LittleEndian.Uint64(b[8:16]),
		PowerUW:  make([]uint32, n),
	}
	for i := range s.PowerUW {
		s.PowerUW[i] = binary.LittleEndian.Uint32(b[18+4*i:])
	}
	return s, nil
}

// Temps is the host-to-device temperature message: the new temperature of
// every thermal cell, fed back to the emulated temperature sensors.
type Temps struct {
	TimePs uint64   // virtual time the temperatures correspond to
	MilliK []uint32 // per-cell temperature in millikelvin
}

// MarshalPayload serialises the temperature payload.
func (t *Temps) MarshalPayload() []byte {
	return t.AppendPayload(nil)
}

// AppendPayload serialises the temperature payload onto b (reusing its
// capacity) and returns the extended slice.
func (t *Temps) AppendPayload(b []byte) []byte {
	off := len(b)
	n := 8 + 2 + 4*len(t.MilliK)
	if cap(b) < off+n {
		nb := make([]byte, off+n)
		copy(nb, b)
		b = nb
	} else {
		b = b[:off+n]
	}
	binary.LittleEndian.PutUint64(b[off:], t.TimePs)
	binary.LittleEndian.PutUint16(b[off+8:], uint16(len(t.MilliK)))
	for i, v := range t.MilliK {
		binary.LittleEndian.PutUint32(b[off+10+4*i:], v)
	}
	return b
}

// UnmarshalTemps parses a temperature payload.
func UnmarshalTemps(b []byte) (*Temps, error) {
	t := &Temps{}
	if err := UnmarshalTempsInto(t, b); err != nil {
		return nil, err
	}
	return t, nil
}

// UnmarshalTempsInto parses a temperature payload into dst, reusing its
// MilliK backing array when its capacity suffices.
func UnmarshalTempsInto(dst *Temps, b []byte) error {
	if len(b) < 10 {
		return fmt.Errorf("etherlink: temps payload too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[8:10]))
	if len(b) != 10+4*n {
		return fmt.Errorf("etherlink: temps payload length %d, want %d entries", len(b), n)
	}
	dst.TimePs = binary.LittleEndian.Uint64(b[0:8])
	if cap(dst.MilliK) < n {
		dst.MilliK = make([]uint32, n)
	}
	dst.MilliK = dst.MilliK[:n]
	for i := range dst.MilliK {
		dst.MilliK[i] = binary.LittleEndian.Uint32(b[10+4*i:])
	}
	return nil
}

// Kelvin returns cell i's temperature in kelvin.
func (t *Temps) Kelvin(i int) float64 { return float64(t.MilliK[i]) / 1000 }

// TempsFromKelvin builds a Temps message from float temperatures.
func TempsFromKelvin(timePs uint64, kelvin []float64) *Temps {
	t := &Temps{TimePs: timePs, MilliK: make([]uint32, len(kelvin))}
	for i, k := range kelvin {
		if k < 0 {
			k = 0
		}
		t.MilliK[i] = uint32(k*1000 + 0.5)
	}
	return t
}

// StatsBatch is the batched device-to-host statistics message: several
// consecutive sampling windows in one frame. The pipelined loop batches
// whatever windows are queued when the link becomes free; the host solves
// them in order, so results are bit-identical to per-window framing.
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

// TempsBatch is the batched host-to-device temperature message answering a
// StatsBatch: one Temps entry per solved window, in order.
type TempsBatch struct {
	Windows []Temps
}

// tempsEntryBytes returns the wire size of one temperature window.
func tempsEntryBytes(cells int) int { return 8 + 2 + 4*cells }

// MaxTempsBatch returns how many temperature windows of the given cell
// count fit one MAC frame as a TempsBatch reply. 0 means not even one
// window's reply fits (see TempsTooLargeError). A one-window reply travels
// as a plain Temps payload, which is 2 bytes smaller, so a result of 1 is
// always deliverable.
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
		e.Cells, tempsEntryBytes(e.Cells), MaxPayload)
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

// Control operations.
const (
	CtrlStart  CtrlOp = iota + 1 // begin a run; Arg = component count
	CtrlStop                     // end of run; Arg = final cycle
	CtrlFreeze                   // host asks device to freeze the virtual clock
	CtrlResume                   // host releases the freeze
)

// String returns the op name.
func (op CtrlOp) String() string {
	switch op {
	case CtrlStart:
		return "start"
	case CtrlStop:
		return "stop"
	case CtrlFreeze:
		return "freeze"
	case CtrlResume:
		return "resume"
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

// eventBytes is the wire size of one logged event.
const eventBytes = 8 + 2 + 1 + 4 + 4

// MaxEventsPerFrame is how many logged events fit a single MAC frame.
const MaxEventsPerFrame = (MaxPayload - 2) / eventBytes

// Events is the device-to-host exhaustive event-log message: the drained
// contents of the BRAM ring produced by event-logging sniffers.
type Events struct {
	Entries []sniffer.Event
}

// MarshalPayload serialises the event batch.
func (e *Events) MarshalPayload() []byte {
	b := make([]byte, 2+eventBytes*len(e.Entries))
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(e.Entries)))
	off := 2
	for _, ev := range e.Entries {
		binary.LittleEndian.PutUint64(b[off:], ev.Cycle)
		binary.LittleEndian.PutUint16(b[off+8:], ev.Source)
		b[off+10] = byte(ev.Kind)
		binary.LittleEndian.PutUint32(b[off+11:], ev.Addr)
		binary.LittleEndian.PutUint32(b[off+15:], ev.Info)
		off += eventBytes
	}
	return b
}

// UnmarshalEvents parses an event batch payload.
func UnmarshalEvents(b []byte) (*Events, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("etherlink: events payload too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	if len(b) != 2+eventBytes*n {
		return nil, fmt.Errorf("etherlink: events payload length %d, want %d entries", len(b), n)
	}
	e := &Events{Entries: make([]sniffer.Event, n)}
	off := 2
	for i := range e.Entries {
		e.Entries[i] = sniffer.Event{
			Cycle:  binary.LittleEndian.Uint64(b[off:]),
			Source: binary.LittleEndian.Uint16(b[off+8:]),
			Kind:   sniffer.EventKind(b[off+10]),
			Addr:   binary.LittleEndian.Uint32(b[off+11:]),
			Info:   binary.LittleEndian.Uint32(b[off+15:]),
		}
		off += eventBytes
	}
	return e, nil
}
