package sweep

import (
	"bytes"
	"encoding/json"
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

// FuzzSweepWire holds the protocol receiver to its contract on arbitrary
// MsgSweep payload streams: chunk reassembly and JSON decode never panic,
// never buffer more than maxMsgBytes (repeat replays the stream to reach
// the cap from a small input), and a decoded message re-chunks and
// reassembles to the same canonical document. The seeds are the payloads
// of a real job, carrying a warm-up checkpoint, and of its result.
func FuzzSweepWire(f *testing.F) {
	s := smallGrid(f)[0].Scenario
	warmup, err := CutWarmup(s, 2)
	if err != nil {
		f.Fatal(err)
	}
	job := &wireMsg{Type: "job", ID: 3, Name: s.Name, Scenario: s.Render(), Warmup: warmup}
	res, err := (&Worker{}).runJob(job)
	if err != nil {
		f.Fatal(err)
	}
	reply := &wireMsg{Type: "result", Worker: "w0", ID: job.ID, Name: job.Name, Result: res}
	for _, m := range []*wireMsg{job, reply, {Type: "ready", Worker: "w0"}, {Type: "done"}} {
		payloads, err := chunks(m)
		if err != nil {
			f.Fatal(err)
		}
		got, err := reassemble(payloads)
		if err != nil || got == nil || got.Type != m.Type || got.Name != m.Name || len(got.Warmup) != len(m.Warmup) {
			f.Fatalf("%s message does not survive the round trip: %+v, %v", m.Type, got, err)
		}
		f.Add(frameStream(payloads), uint16(0))
	}
	f.Add(frameStream([][]byte{{}}), uint16(0))
	f.Add(frameStream([][]byte{[]byte("\x00{\"type\":"), []byte("\x01\"job\"")}), uint16(0))
	f.Add(frameStream([][]byte{[]byte("\x01{\"id\":\"x\"}")}), uint16(0))
	nonFinal := append([]byte{0}, bytes.Repeat([]byte{' '}, maxChunk)...)
	f.Add(frameStream([][]byte{nonFinal}), uint16(maxMsgBytes/maxChunk+1))

	f.Fuzz(func(t *testing.T, stream []byte, repeat uint16) {
		frames := splitFrames(stream)
		var a assembler
		fed, calls := 0, 0
		for r := 0; r <= int(repeat); r++ {
			for _, p := range frames {
				// At most 1<<16 payloads per input: enough maximal chunks
				// to pass the cap, few enough that replayed tiny frames
				// stay fast.
				if calls++; calls > 1<<16 {
					return
				}
				m, err := a.add(p)
				if len(a.doc) > maxMsgBytes {
					t.Fatalf("assembler buffers %d bytes, cap %d", len(a.doc), maxMsgBytes)
				}
				if len(p) > 0 {
					fed += len(p) - 1
				}
				if err != nil {
					if strings.Contains(err.Error(), "exceeds") && fed <= maxMsgBytes {
						t.Fatalf("size-cap error after only %d document bytes", fed)
					}
					return
				}
				if m == nil {
					continue
				}
				doc, err := json.Marshal(m)
				if err != nil {
					t.Fatalf("decoded message does not re-encode: %v", err)
				}
				if len(doc) > maxMsgBytes {
					return // escaping grew it past the cap: not sendable
				}
				payloads, err := chunks(m)
				if err != nil {
					t.Fatal(err)
				}
				again, err := reassemble(payloads)
				if err != nil || again == nil {
					t.Fatalf("re-chunked message does not reassemble: %v", err)
				}
				if redoc, _ := json.Marshal(again); !bytes.Equal(redoc, doc) {
					t.Fatalf("round trip changed the document:\n  %s\n  %s", doc, redoc)
				}
				return
			}
		}
	})
}
