package sweep

import (
	"fmt"
	"strings"

	"thermemu/internal/etherlink"
	"thermemu/internal/scenario"
)

// Worker executes jobs for a coordinator. A job is a group of grid points
// that share one platform: it carries each point's full scenario
// (canonical render) and, when the sweep shares warm-up prefixes, the key
// of the TMCK checkpoint the group resumes or forks from. The worker runs
// the group as one co-emulation (RunGroup) and holds the last checkpoint
// it was sent, so the coordinator ships the bytes only when the key
// changes. Any worker can run any job, and a re-dispatched job computes
// the same digests wherever it lands.
type Worker struct {
	Name string
	// Link tunes the reliable endpoint (zero fields take the sweep
	// defaults via Options).
	Link etherlink.ReliableConfig
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Serve pulls jobs over the transport until the coordinator sends done
// (returns nil) or the link dies (returns the error). The transport is
// closed on exit.
func (w *Worker) Serve(tr etherlink.Transport) error {
	defer tr.Close()
	link := w.Link
	if link.Window == 0 || link.RetryTimeout == 0 || link.MaxRetries == 0 {
		link = (&Options{Link: link}).sweepLink()
	}
	ep := newEndpoint(tr, false, link)
	var held heldWarmup
	if err := sendMsg(ep, &wireMsg{Type: "ready", Worker: w.Name}); err != nil {
		return err
	}
	for {
		m, err := recvMsg(ep)
		if err != nil {
			return err
		}
		switch m.Type {
		case "job":
			warmup, err := held.resolve(m)
			if err != nil {
				return fmt.Errorf("sweep: %s: %w", w.Name, err)
			}
			w.logf("sweep: %s running %s", w.Name, jobLabel(m))
			reply := &wireMsg{Type: "result", Worker: w.Name, ID: m.ID}
			res, err := w.runJob(m, warmup)
			if err != nil {
				reply.Error = err.Error()
			} else {
				reply.Results = res
			}
			if err := sendMsg(ep, reply); err != nil {
				return err
			}
			if err := sendMsg(ep, &wireMsg{Type: "ready", Worker: w.Name, Have: held.key}); err != nil {
				return err
			}
		case "done":
			w.logf("sweep: %s done", w.Name)
			return nil
		default:
			return fmt.Errorf("sweep: unexpected %q message from coordinator", m.Type)
		}
	}
}

// heldWarmup is the one warm-up checkpoint a worker keeps between jobs.
type heldWarmup struct {
	key string
	ck  []byte
}

// resolve returns the checkpoint job m resumes from: none for a job without
// a warm-up key, the job's own bytes (which replace the held checkpoint),
// or the held checkpoint when the job names its key and carries no bytes.
func (h *heldWarmup) resolve(m *wireMsg) ([]byte, error) {
	switch {
	case m.WarmupKey == "":
		return m.Warmup, nil
	case m.Warmup != nil:
		h.key, h.ck = m.WarmupKey, m.Warmup
	case m.WarmupKey != h.key:
		return nil, fmt.Errorf("job %s resumes warm-up %s, which this worker does not hold (it holds %q)",
			jobLabel(m), m.WarmupKey, h.key)
	}
	return h.ck, nil
}

// jobLabel names a job's points for logs and errors.
func jobLabel(m *wireMsg) string {
	names := make([]string, len(m.Points))
	for i, p := range m.Points {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// runJob runs a job's points as one group and labels each result with its
// grid coordinates.
func (w *Worker) runJob(m *wireMsg, warmup []byte) ([]*Result, error) {
	if len(m.Points) == 0 {
		return nil, fmt.Errorf("job %d has no points", m.ID)
	}
	ss := make([]*scenario.Scenario, len(m.Points))
	for i, p := range m.Points {
		s, err := scenario.Parse(p.Scenario)
		if err != nil {
			return nil, fmt.Errorf("point %s: %w", p.Name, err)
		}
		ss[i] = s
	}
	res, err := RunGroup(ss, warmup)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		r.Point = m.Points[i].ID
		r.Name = m.Points[i].Name
	}
	return res, nil
}
