package sweep

import (
	"encoding/json"
	"errors"
	"fmt"

	"thermemu/internal/etherlink"
)

// The coordinator-worker protocol rides MsgSweep frames over a reliable
// endpoint (go-back-N NACK/resend healing), so the job stream survives the
// same drops, duplicates, reordering and corruption the co-emulation link
// does. Messages are JSON documents chunked to the MTU; the endpoint
// delivers frames in order, so a chunk needs only a last-chunk marker.
//
// The exchange, strictly alternating per worker:
//
//	worker -> coordinator: ready {worker}
//	coordinator -> worker: job {id, name, scenario, warmup} | done {}
//	worker -> coordinator: result {id, name, result | error}, then ready
//
// A worker that dies mid-job simply never sends its result; the
// coordinator's session ends on the transport error and the job returns to
// the queue. An idle worker whose job is stolen and completed elsewhere may
// still deliver a duplicate result — the coordinator verifies the digests
// match and drops it.
type wireMsg struct {
	Type     string  `json:"type"` // ready | job | result | done
	Worker   string  `json:"worker,omitempty"`
	ID       int     `json:"id,omitempty"`
	Name     string  `json:"name,omitempty"`
	Scenario string  `json:"scenario,omitempty"` // canonical scenario render
	Warmup   []byte  `json:"warmup,omitempty"`   // encoded TMCK prefix checkpoint
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// maxChunk keeps a chunk plus its 1-byte last-marker inside MaxPayload.
const maxChunk = etherlink.MaxPayload - 1

// maxMsgBytes bounds the reassembled size of one protocol message, so a
// peer that streams non-final chunks cannot grow the receiver's buffer
// without limit. The largest real message, a job carrying its warm-up
// checkpoint, is under 100 kB for the example and benchmark grids.
const maxMsgBytes = 16 << 20

// errPeerStopped reports a graceful CtrlStop from the peer (e.g. a
// supervisor shutting down) observed mid-conversation.
var errPeerStopped = errors.New("sweep: peer stopped")

func sendMsg(ep *etherlink.Endpoint, m *wireMsg) error {
	payloads, err := chunks(m)
	if err != nil {
		return err
	}
	for _, p := range payloads {
		if err := ep.Send(etherlink.MsgSweep, p); err != nil {
			return err
		}
	}
	return nil
}

// chunks splits the JSON document of m into MsgSweep payloads: a last-chunk
// marker byte (1 on the final chunk, 0 before it) followed by at most
// maxChunk document bytes.
func chunks(m *wireMsg) ([][]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for len(b) > maxChunk {
		out = append(out, append([]byte{0}, b[:maxChunk]...))
		b = b[maxChunk:]
	}
	return append(out, append([]byte{1}, b...)), nil
}

func recvMsg(ep *etherlink.Endpoint) (*wireMsg, error) {
	var a assembler
	for {
		f, err := ep.Recv()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case etherlink.MsgSweep:
		case etherlink.MsgCtrl:
			if c, err := etherlink.UnmarshalCtrl(f.Payload); err == nil && c.Op == etherlink.CtrlStop {
				return nil, errPeerStopped
			}
			continue
		default:
			continue // not ours (e.g. stray acks); the sweep stream is MsgSweep only
		}
		if m, err := a.add(f.Payload); m != nil || err != nil {
			return m, err
		}
	}
}

// assembler reassembles one protocol message from its MsgSweep payloads,
// never buffering more than maxMsgBytes of document.
type assembler struct{ doc []byte }

// add consumes one payload. It returns the decoded message after the final
// chunk, nothing while more chunks are due, or an error for an empty
// payload, a document past maxMsgBytes or malformed JSON.
func (a *assembler) add(payload []byte) (*wireMsg, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("sweep: empty protocol frame")
	}
	if len(a.doc)+len(payload)-1 > maxMsgBytes {
		return nil, fmt.Errorf("sweep: protocol message exceeds %d bytes", maxMsgBytes)
	}
	a.doc = append(a.doc, payload[1:]...)
	if payload[0] == 0 {
		return nil, nil
	}
	var m wireMsg
	if err := json.Unmarshal(a.doc, &m); err != nil {
		return nil, fmt.Errorf("sweep: malformed protocol message: %w", err)
	}
	return &m, nil
}

// newEndpoint wires a transport into the sweep protocol endpoint. The
// coordinator is the host side, workers are devices; both run the reliable
// go-back-N protocol so the chunk stream heals under link faults.
func newEndpoint(tr etherlink.Transport, coordinator bool, link etherlink.ReliableConfig) *etherlink.Endpoint {
	local, remote := etherlink.DeviceMAC, etherlink.HostMAC
	if coordinator {
		local, remote = etherlink.HostMAC, etherlink.DeviceMAC
	}
	ep := etherlink.NewEndpoint(tr, local, remote)
	ep.EnableReliability(link)
	return ep
}
