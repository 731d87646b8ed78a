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
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	for len(b) > maxChunk {
		if err := ep.Send(etherlink.MsgSweep, append([]byte{0}, b[:maxChunk]...)); err != nil {
			return err
		}
		b = b[maxChunk:]
	}
	return ep.Send(etherlink.MsgSweep, append([]byte{1}, b...))
}

func recvMsg(ep *etherlink.Endpoint) (*wireMsg, error) {
	var doc []byte
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
		if len(f.Payload) == 0 {
			return nil, fmt.Errorf("sweep: empty protocol frame")
		}
		if len(doc)+len(f.Payload)-1 > maxMsgBytes {
			return nil, fmt.Errorf("sweep: protocol message exceeds %d bytes", maxMsgBytes)
		}
		doc = append(doc, f.Payload[1:]...)
		if f.Payload[0] == 0 {
			continue
		}
		var m wireMsg
		if err := json.Unmarshal(doc, &m); err != nil {
			return nil, fmt.Errorf("sweep: malformed protocol message: %w", err)
		}
		return &m, nil
	}
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
