package sweep

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// FuzzSweepSpec holds the spec parser to its contract on arbitrary input:
// it returns either a spec or an error, never both, and never panics.
func FuzzSweepSpec(f *testing.F) {
	for _, path := range []string{
		"../../examples/scenarios/noc-grid.sweep",
		"../../bench/workloads/grid.sweep",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("")
	f.Add(Header + "\n[axis freq-mhz]\nvalues = 100, x\n")
	f.Add(Header + "\n[axis nope]\n")
	f.Add(Header + "\n[sweep]\nwarmup-windows = -1\n")
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := ParseSpec(src)
		if (sp == nil) == (err == nil) {
			t.Fatalf("ParseSpec(%q) = (%v, %v): want exactly one of spec and error", src, sp, err)
		}
	})
}

// frameStream encodes payloads as the FuzzSweepWire input format: each
// payload prefixed by its 16-bit little-endian length.
func frameStream(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, byte(len(p)), byte(len(p)>>8))
		out = append(out, p...)
	}
	return out
}

// splitFrames decodes the FuzzSweepWire input format; a length running past
// the end takes what is left.
func splitFrames(stream []byte) [][]byte {
	var frames [][]byte
	for len(stream) >= 2 {
		n := int(stream[0]) | int(stream[1])<<8
		stream = stream[2:]
		if n > len(stream) {
			n = len(stream)
		}
		frames = append(frames, stream[:n])
		stream = stream[n:]
	}
	return frames
}

// encode frames m into copies of its MsgSweep payloads.
func encode(m *wireMsg) ([][]byte, error) {
	var out [][]byte
	err := writeMsg(m, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	return out, err
}

// reassemble feeds payloads to a fresh assembler until it yields a message
// or an error.
func reassemble(payloads [][]byte) (*wireMsg, error) {
	var a assembler
	for _, p := range payloads {
		if m, err := a.add(p); m != nil || err != nil {
			return m, err
		}
	}
	return nil, nil
}

// prefixed builds a single final payload whose prefix declares the given
// version and header length, followed by data.
func prefixed(version byte, hdrLen uint32, data string) []byte {
	p := []byte{1, version}
	p = binary.LittleEndian.AppendUint32(p, hdrLen)
	return append(p, data...)
}

// v3Frame is a whole version-3 message: its prefix declared a header
// length and a blob length, and the blob followed the header.
func v3Frame() []byte {
	p := []byte{1, 3}
	p = binary.LittleEndian.AppendUint32(p, 15)
	p = binary.LittleEndian.AppendUint32(p, 2)
	return append(p, `{"type":"done"}xx`...)
}

// FuzzSweepWire holds the protocol receiver to its contract on arbitrary
// MsgSweep payload streams: reassembly and decode never panic, the
// assembler allocates exactly the length the prefix declares and never
// more than maxMsgBytes, a job or result lists at most maxJobPoints
// points, no count decodes negative, and a decoded message re-encodes to
// the same bytes. The seeds are the payloads of real jobs of one point and
// of a three-point group, each asking for a warm-up prefix, and of their
// results.
func FuzzSweepWire(f *testing.F) {
	group := warmupBenchGrid(f)
	var msgs []*wireMsg
	for id, points := range [][]Point{group[:1], group} {
		job := &wireMsg{Type: "job", ID: id, WarmupWindows: 2}
		for _, p := range points {
			job.Points = append(job.Points, jobPoint{ID: p.Index, Name: p.Name, Scenario: p.Scenario.Render()})
		}
		res, wall, err := (&Worker{}).runJob(job)
		if err != nil {
			f.Fatal(err)
		}
		msgs = append(msgs, job, &wireMsg{Type: "result", Worker: "w0", ID: job.ID, Results: res, WarmupWall: wall})
	}
	msgs = append(msgs, &wireMsg{Type: "ready", Worker: "w0"}, &wireMsg{Type: "done"})
	for _, m := range msgs {
		payloads, err := encode(m)
		if err != nil {
			f.Fatal(err)
		}
		got, err := reassemble(payloads)
		if err != nil || got == nil || got.Type != m.Type || len(got.Points) != len(m.Points) ||
			len(got.Results) != len(m.Results) || got.WarmupWindows != m.WarmupWindows || got.WarmupWall != m.WarmupWall {
			f.Fatalf("%s message does not survive the round trip (got %v, error %v)", m.Type, got != nil, err)
		}
		f.Add(frameStream(payloads))
	}
	over := `{"type":"job","points":[` + strings.Repeat(`{"id":0,"name":"p","scenario":""},`, maxJobPoints) + `{}]}`
	f.Add(frameStream([][]byte{prefixed(wireVersion, uint32(len(over)), over)}))
	f.Add(frameStream([][]byte{{}}))
	f.Add(frameStream([][]byte{[]byte("\x01{\"type\":\"done\"}")}))
	f.Add(frameStream([][]byte{prefixed(wireVersion, maxMsgBytes+1, "")}))
	f.Add(frameStream([][]byte{v3Frame()}))
	f.Add(frameStream([][]byte{prefixed(wireVersion, 17, `{"type":"done"}`)}))
	f.Add(frameStream([][]byte{prefixed(wireVersion, 15, `{"type":"done"}xx`)}))
	negJob := `{"type":"job","points":[{"id":0,"name":"p","scenario":""}],"warmup_windows":-1}`
	f.Add(frameStream([][]byte{prefixed(wireVersion, uint32(len(negJob)), negJob)}))
	negResult := `{"type":"result","warmup_ns":-5}`
	f.Add(frameStream([][]byte{prefixed(wireVersion, uint32(len(negResult)), negResult)}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		frames := splitFrames(stream)
		var a assembler
		for _, p := range frames {
			m, err := a.add(p)
			if m != nil && (len(m.Points) > maxJobPoints || len(m.Results) > maxJobPoints) {
				t.Fatalf("decoded a %q message of %d points and %d results, past the cap of %d",
					m.Type, len(m.Points), len(m.Results), maxJobPoints)
			}
			if m != nil && (m.WarmupWindows < 0 || m.WarmupWall < 0) {
				t.Fatalf("decoded a %q message with a negative warm-up: %d windows, %d ns", m.Type, m.WarmupWindows, m.WarmupWall)
			}
			if a.started {
				h, _ := readPrefix(frames[0][1:])
				if cap(a.buf) != h || cap(a.buf) > maxMsgBytes {
					t.Fatalf("assembler allocated %d bytes for a declared %d (cap %d)", cap(a.buf), h, maxMsgBytes)
				}
			}
			if err != nil {
				return
			}
			if m == nil {
				continue
			}
			first, err := encode(m)
			if err != nil {
				return // escaping grew the header past the cap: not sendable
			}
			again, err := reassemble(first)
			if err != nil || again == nil {
				t.Fatalf("re-encoded message does not reassemble: %v", err)
			}
			second, err := encode(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytes.Join(first, nil), bytes.Join(second, nil)) {
				t.Fatalf("round trip changed the encoding of a %q message", m.Type)
			}
			return
		}
	})
}
