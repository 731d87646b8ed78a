package sweep

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"thermemu/internal/checkpoint"
	"thermemu/internal/etherlink"
)

// The coordinator-worker protocol rides MsgSweep frames over a reliable
// endpoint (go-back-N NACK/resend healing), so the job stream survives the
// same drops, duplicates, reordering and corruption the co-emulation link
// does.
//
// A message is a prefix, a JSON header and a raw blob, cut into MsgSweep
// payloads of at most MaxPayload bytes. Every payload starts with a
// last-chunk marker (1 on the final chunk, 0 before it); the endpoint
// delivers frames in order, so that is all the chunks need. The first
// chunk's data opens with the prefix:
//
//	byte 0     wire version (wireVersion)
//	bytes 1-4  header length, uint32 little-endian
//	bytes 5-8  blob length, uint32 little-endian
//
// The header is the JSON of wireMsg. The blob is a job's encoded TMCK
// warm-up checkpoint, carried raw rather than base64-encoded inside the
// JSON, and is empty on every other message.
//
// The exchange, strictly alternating per worker:
//
//	worker -> coordinator: ready {worker, have}
//	coordinator -> worker: job {id, name, scenario, warmup_key} + blob | done {}
//	worker -> coordinator: result {id, name, result | error}, then ready
//
// A worker keeps the last warm-up checkpoint it received and reports its
// key as have. A job names the warm-up its point resumes from in
// warmup_key and carries the checkpoint bytes only when that key differs
// from the worker's have, so each checkpoint crosses a worker's link once
// per change of the warm-up it holds. A worker sent a key it does not hold
// and no bytes ends its session with an error; the coordinator re-queues
// the point as for any dead link.
//
// A ready from a worker that still holds an unanswered job breaks the
// alternation: the coordinator ends that session with an error and
// re-queues the point, as for a dead link.
//
// A worker that dies mid-job simply never sends its result; the
// coordinator's session ends on the transport error and the job returns to
// the queue. An idle worker whose job is stolen and completed elsewhere may
// still deliver a duplicate result — the coordinator verifies the digests
// match and drops it.
type wireMsg struct {
	Type      string  `json:"type"` // ready | job | result | done
	Worker    string  `json:"worker,omitempty"`
	Have      string  `json:"have,omitempty"` // ready: key of the warm-up checkpoint the worker holds
	ID        int     `json:"id,omitempty"`
	Name      string  `json:"name,omitempty"`
	Scenario  string  `json:"scenario,omitempty"`   // canonical scenario render
	WarmupKey string  `json:"warmup_key,omitempty"` // job: key of the warm-up checkpoint the point resumes from
	Warmup    []byte  `json:"-"`                    // the blob: an encoded TMCK prefix checkpoint
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// wireVersion numbers the framing above. Version 1 sent each message as
// one JSON document with the checkpoint base64-encoded inside it, so its
// first data byte is '{'.
const wireVersion = 2

// prefixLen is the size of the version and length prefix.
const prefixLen = 9

// maxMsgBytes bounds the declared header plus blob length of one protocol
// message. The receiver checks it against the prefix before allocating,
// and then allocates exactly the declared length once, so a peer can make
// it buffer no more than this. The largest real message is a job carrying
// its warm-up checkpoint, so the bound is the checkpoint's own.
const maxMsgBytes = checkpoint.MaxBytes

func sendMsg(ep *etherlink.Endpoint, m *wireMsg) error {
	return writeMsg(m, func(p []byte) error { return ep.Send(etherlink.MsgSweep, p) })
}

// writeMsg frames m and hands it to emit one MsgSweep payload at a time.
// Every payload is cut from one reused buffer of at most MaxPayload bytes,
// so emit must copy what it keeps (Endpoint.Send copies the payload into
// its frame).
func writeMsg(m *wireMsg, emit func([]byte) error) error {
	hdr, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if n := len(hdr) + len(m.Warmup); n > maxMsgBytes {
		return fmt.Errorf("sweep: %s message of %d bytes exceeds %d bytes", m.Type, n, maxMsgBytes)
	}
	var prefix [prefixLen]byte
	prefix[0] = wireVersion
	binary.LittleEndian.PutUint32(prefix[1:], uint32(len(hdr)))
	binary.LittleEndian.PutUint32(prefix[5:], uint32(len(m.Warmup)))
	buf := make([]byte, min(etherlink.MaxPayload, 1+prefixLen+len(hdr)+len(m.Warmup)))
	n := 1
	for _, part := range [...][]byte{prefix[:], hdr, m.Warmup} {
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
	buf     []byte // header then blob; cap is the declared length
	hdrLen  int
	started bool
}

// add consumes one payload. It returns the decoded message after the final
// chunk, nothing while more chunks are due, or an error for an empty
// payload, a bad prefix (wrong version, truncated, or a declared length
// past maxMsgBytes), data past the declared length, a final chunk short of
// it, or a malformed header. The decoded message's Warmup aliases the blob
// part of the buffer.
func (a *assembler) add(payload []byte) (*wireMsg, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("sweep: empty protocol frame")
	}
	last, data := payload[0] != 0, payload[1:]
	if !a.started {
		hdrLen, blobLen, err := readPrefix(data)
		if err != nil {
			return nil, err
		}
		a.started, a.hdrLen = true, hdrLen
		a.buf = make([]byte, 0, hdrLen+blobLen)
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
	if err := json.Unmarshal(a.buf[:a.hdrLen], &m); err != nil {
		return nil, fmt.Errorf("sweep: malformed protocol message: %w", err)
	}
	if len(a.buf) > a.hdrLen {
		m.Warmup = a.buf[a.hdrLen:]
	}
	return &m, nil
}

// readPrefix checks a message's version and length prefix and returns the
// declared header and blob lengths.
func readPrefix(data []byte) (hdrLen, blobLen int, err error) {
	if len(data) > 0 && data[0] != wireVersion {
		v := int(data[0])
		if data[0] == '{' {
			v = 1
		}
		return 0, 0, fmt.Errorf("sweep: peer speaks wire version %d, this side speaks version %d", v, wireVersion)
	}
	if len(data) < prefixLen {
		return 0, 0, fmt.Errorf("sweep: protocol message prefix truncated to %d bytes", len(data))
	}
	h := uint64(binary.LittleEndian.Uint32(data[1:]))
	b := uint64(binary.LittleEndian.Uint32(data[5:]))
	if h+b > maxMsgBytes {
		return 0, 0, fmt.Errorf("sweep: protocol message declares %d bytes, which exceeds %d bytes", h+b, maxMsgBytes)
	}
	return int(h), int(b), nil
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
