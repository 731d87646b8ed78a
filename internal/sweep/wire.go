package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"thermemu/internal/etherlink"
)

// The coordinator-worker protocol rides MsgSweep frames over a reliable
// endpoint (go-back-N NACK/resend healing), so the job stream survives the
// same drops, duplicates, reordering and corruption the co-emulation link
// does.
//
// A message is a prefix and a JSON header, cut into MsgSweep payloads of
// at most MaxPayload bytes. Every payload starts with a last-chunk marker
// (1 on the final chunk, 0 before it); the endpoint delivers frames in
// order, so that is all the chunks need. The first chunk's data opens with
// the prefix:
//
//	byte 0     wire version (wireVersion)
//	bytes 1-4  header length, uint32 little-endian
//
// The header is the JSON of wireMsg.
//
// A job is a group: the grid points that share a warm-up key (the same
// platform, workload and thermal set-up, differing only in TM policy), at
// most maxJobPoints of them. The worker runs them as one co-emulation that
// steps the platform once for all of them, and answers with one result
// per point, in the job's order. The exchange, strictly alternating per
// worker:
//
//	worker -> coordinator: ready {worker}
//	coordinator -> worker: job {id, points [{id, name, scenario}], warmup_windows} | done {}
//	worker -> coordinator: result {id, results | error, warmup_ns}, then ready
//
// A job with warmup_windows > 0 asks the worker to run the group's TM-off
// prefix for that many windows first, in process, and to resume every
// point from it: a TM-off point continues the prefix's golden lineage, a
// policy point forks from it. The result reports the prefix's wall time
// in warmup_ns. A negative warmup_windows or warmup_ns is refused as the
// message decodes.
//
// A ready from a worker that still holds an unanswered job breaks the
// alternation: the coordinator ends that session with an error and
// re-queues the group, as for a dead link.
//
// A worker that dies mid-job simply never sends its result; the
// coordinator's session ends on the transport error and the job returns to
// the queue. An idle worker whose job is stolen and completed elsewhere may
// still deliver a duplicate result — the coordinator verifies the digests
// match and drops it.
type wireMsg struct {
	Type          string                `json:"type"` // ready | job | result | done
	Worker        string                `json:"worker,omitempty"`
	ID            int                   `json:"id,omitempty"` // job, result: the job's id
	Points        boundedList[jobPoint] `json:"points,omitempty"`
	WarmupWindows int                   `json:"warmup_windows,omitempty"` // job: TM-off prefix to cut before the group runs
	Results       boundedList[*Result]  `json:"results,omitempty"`        // result: one per job point, in job order
	WarmupWall    time.Duration         `json:"warmup_ns,omitempty"`      // result: the prefix's wall time
	Error         string                `json:"error,omitempty"`
}

// jobPoint is one grid point of a job.
type jobPoint struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Scenario string `json:"scenario"` // canonical scenario render
}

// maxJobPoints bounds the points of one job and the results of one reply.
// The coordinator splits a larger warm-up group into several jobs, and the
// receiver refuses a longer list as it decodes, before holding more than
// this many elements.
const maxJobPoints = 64

// boundedList is a JSON array of at most maxJobPoints elements.
type boundedList[T any] []T

// UnmarshalJSON decodes the array element by element and fails at the
// first element past maxJobPoints.
func (l *boundedList[T]) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		*l = nil
		return nil
	}
	if tok != json.Delim('[') {
		return fmt.Errorf("sweep: want a list, got %v", tok)
	}
	var out []T
	for dec.More() {
		if len(out) == maxJobPoints {
			return fmt.Errorf("sweep: a list of more than %d points", maxJobPoints)
		}
		var v T
		if err := dec.Decode(&v); err != nil {
			return err
		}
		out = append(out, v)
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	*l = out
	return nil
}

// wireVersion numbers the framing above. Version 1 sent each message as
// one JSON document with the checkpoint base64-encoded inside it, so its
// first data byte is '{'. Version 2 carried one point per job. Version 3
// shipped the group's warm-up checkpoint as a raw blob after the header.
const wireVersion = 4

// prefixLen is the size of the version and length prefix.
const prefixLen = 5

// maxMsgBytes bounds the declared header length of one protocol message.
// The receiver checks it against the prefix before allocating, and then
// allocates exactly the declared length once, so a peer can make it buffer
// no more than this. The largest real message is a job or result of
// maxJobPoints points, each a scenario render or a run summary of a few
// kilobytes, far inside the bound.
const maxMsgBytes = 16 << 20

func sendMsg(ep *etherlink.Endpoint, m *wireMsg) error {
	return writeMsg(m, func(p []byte) error { return ep.Send(etherlink.MsgSweep, p) })
}

// writeMsg frames m and hands it to emit one MsgSweep payload at a time.
// Every payload is cut from one reused buffer of at most MaxPayload bytes,
// so emit must copy what it keeps (Endpoint.Send copies the payload into
// its frame).
func writeMsg(m *wireMsg, emit func([]byte) error) error {
	if len(m.Points) > maxJobPoints || len(m.Results) > maxJobPoints {
		return fmt.Errorf("sweep: %s message lists more than %d points", m.Type, maxJobPoints)
	}
	hdr, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(hdr) > maxMsgBytes {
		return fmt.Errorf("sweep: %s message of %d bytes exceeds %d bytes", m.Type, len(hdr), maxMsgBytes)
	}
	var prefix [prefixLen]byte
	prefix[0] = wireVersion
	binary.LittleEndian.PutUint32(prefix[1:], uint32(len(hdr)))
	buf := make([]byte, min(etherlink.MaxPayload, 1+prefixLen+len(hdr)))
	n := 1
	for _, part := range [...][]byte{prefix[:], hdr} {
		for len(part) > 0 {
			if n == len(buf) {
				buf[0] = 0
				if err := emit(buf); err != nil {
					return err
				}
				n = 1
			}
			c := copy(buf[n:], part)
			n += c
			part = part[c:]
		}
	}
	buf[0] = 1
	return emit(buf[:n])
}

func recvMsg(ep *etherlink.Endpoint) (*wireMsg, error) {
	var a assembler
	for {
		f, err := ep.Recv()
		if err != nil {
			return nil, err
		}
		if f.Type != etherlink.MsgSweep {
			continue // not ours (e.g. stray acks); the sweep stream is MsgSweep only
		}
		if m, err := a.add(f.Payload); m != nil || err != nil {
			return m, err
		}
	}
}

// assembler reassembles one protocol message from its MsgSweep payloads
// into a single buffer of exactly the length its prefix declares.
type assembler struct {
	buf     []byte // the header; cap is the declared length
	started bool
}

// add consumes one payload. It returns the decoded message after the final
// chunk, nothing while more chunks are due, or an error for an empty
// payload, a bad prefix (wrong version, truncated, or a declared length
// past maxMsgBytes), data past the declared length, a final chunk short of
// it, a malformed header, or a negative count.
func (a *assembler) add(payload []byte) (*wireMsg, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("sweep: empty protocol frame")
	}
	last, data := payload[0] != 0, payload[1:]
	if !a.started {
		hdrLen, err := readPrefix(data)
		if err != nil {
			return nil, err
		}
		a.started = true
		a.buf = make([]byte, 0, hdrLen)
		data = data[prefixLen:]
	}
	if len(data) > cap(a.buf)-len(a.buf) {
		return nil, fmt.Errorf("sweep: protocol message runs past its declared %d bytes", cap(a.buf))
	}
	a.buf = append(a.buf, data...)
	if !last {
		return nil, nil
	}
	if len(a.buf) < cap(a.buf) {
		return nil, fmt.Errorf("sweep: protocol message ends at %d of its declared %d bytes", len(a.buf), cap(a.buf))
	}
	var m wireMsg
	if err := json.Unmarshal(a.buf, &m); err != nil {
		return nil, fmt.Errorf("sweep: malformed protocol message: %w", err)
	}
	if m.WarmupWindows < 0 || m.WarmupWall < 0 {
		return nil, fmt.Errorf("sweep: %s message with a negative warm-up (%d windows, %d ns)", m.Type, m.WarmupWindows, m.WarmupWall)
	}
	return &m, nil
}

// readPrefix checks a message's version and length prefix and returns the
// declared header length.
func readPrefix(data []byte) (int, error) {
	if len(data) > 0 && data[0] != wireVersion {
		v := int(data[0])
		if data[0] == '{' {
			v = 1
		}
		return 0, fmt.Errorf("sweep: peer speaks wire version %d, this side speaks version %d", v, wireVersion)
	}
	if len(data) < prefixLen {
		return 0, fmt.Errorf("sweep: protocol message prefix truncated to %d bytes", len(data))
	}
	h := binary.LittleEndian.Uint32(data[1:])
	if h > maxMsgBytes {
		return 0, fmt.Errorf("sweep: protocol message declares %d bytes, which exceeds %d bytes", h, maxMsgBytes)
	}
	return int(h), nil
}

// newEndpoint wires a transport into the sweep protocol endpoint. The
// coordinator is the host side, workers are devices; both run the reliable
// go-back-N protocol so the chunk stream heals under link faults.
func newEndpoint(tr etherlink.Transport, coordinator bool, link etherlink.ReliableConfig) *etherlink.Endpoint {
	local, remote := etherlink.DeviceMAC, etherlink.HostMAC
	if coordinator {
		local, remote = etherlink.HostMAC, etherlink.DeviceMAC
	}
	return etherlink.NewEndpoint(tr, local, remote, link)
}
