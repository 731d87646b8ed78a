package sweep

import (
	"fmt"
	"strings"
	"time"

	"thermemu/internal/checkpoint"
	"thermemu/internal/etherlink"
	"thermemu/internal/scenario"
)

// Worker executes jobs for a coordinator. A job is a group of grid points
// that share one platform: it carries each point's full scenario
// (canonical render) and, when the sweep shares a warm-up prefix, its
// length in windows. The worker cuts the group's TM-off prefix in memory
// and runs the group from it as one co-emulation (runGroup). Any worker
// can run any job, and a re-dispatched job computes the same digests
// wherever it lands.
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
			w.logf("sweep: %s running %s", w.Name, jobLabel(m))
			res, warmupWall, err := w.runJob(m)
			reply := &wireMsg{Type: "result", Worker: w.Name, ID: m.ID, WarmupWall: warmupWall}
			if err != nil {
				reply.Error = err.Error()
			} else {
				reply.Results = res
			}
			if err := sendMsg(ep, reply); err != nil {
				return err
			}
			if err := sendMsg(ep, &wireMsg{Type: "ready", Worker: w.Name}); err != nil {
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

// jobLabel names a job's points for logs and errors.
func jobLabel(m *wireMsg) string {
	names := make([]string, len(m.Points))
	for i, p := range m.Points {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// runJob runs a job's points as one group, from the TM-off prefix it cuts
// first when the job asks for one, and labels each result with its grid
// coordinates. It also returns the prefix's wall time.
func (w *Worker) runJob(m *wireMsg) ([]*Result, time.Duration, error) {
	if len(m.Points) == 0 {
		return nil, 0, fmt.Errorf("job %d has no points", m.ID)
	}
	ss := make([]*scenario.Scenario, len(m.Points))
	for i, p := range m.Points {
		s, err := scenario.Parse(p.Scenario)
		if err != nil {
			return nil, 0, fmt.Errorf("point %s: %w", p.Name, err)
		}
		ss[i] = s
	}
	var (
		warmup *checkpoint.Checkpoint
		wall   time.Duration
	)
	if m.WarmupWindows > 0 {
		start := time.Now()
		var err error
		if warmup, err = cutWarmup(ss[0], m.WarmupWindows); err != nil {
			return nil, 0, err
		}
		wall = time.Since(start)
	}
	res, err := runGroup(ss, warmup)
	if err != nil {
		return nil, wall, err
	}
	for i, r := range res {
		r.Point = m.Points[i].ID
		r.Name = m.Points[i].Name
	}
	return res, wall, nil
}
