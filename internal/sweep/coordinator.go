package sweep

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"thermemu/internal/etherlink"
)

// Options tunes a sweep run.
type Options struct {
	// Workers is the in-process worker-pool size for Run and RunPoints.
	// Serve ignores it: there the workers dial in, and each cuts the
	// warm-up prefix of the jobs it runs. Default 1.
	Workers int
	// Fault, when non-zero, wraps every in-process worker link in a
	// FaultTransport (both directions) seeded with FaultSeed+workerIndex:
	// chaos soak for the dispatch protocol.
	Fault     etherlink.FaultConfig
	FaultSeed int64
	// Link tunes the reliable endpoint protocol of every session (zero
	// fields take sweep defaults: a 4096-frame resend window and a 60 s
	// idle budget to cover long points).
	Link etherlink.ReliableConfig
	// Logf, when non-nil, observes dispatch events.
	Logf func(format string, args ...any)
}

// sweepLink fills the Options.Link defaults. The go-back-N resend window
// spans a whole message burst: a job or result of maxJobPoints points takes
// a few dozen ~1.5 kB frames, far inside it. The idle budget (RetryTimeout
// x MaxRetries, 60 s) must outlast the slowest job a worker computes
// between protocol messages.
func (o *Options) sweepLink() etherlink.ReliableConfig {
	l := o.Link
	if l.Window == 0 {
		l.Window = 4096
	}
	if l.RetryTimeout == 0 {
		l.RetryTimeout = 100 * time.Millisecond
	}
	if l.MaxRetries == 0 {
		l.MaxRetries = 600
	}
	return l
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Outcome is a finished sweep: every point's result in grid order plus the
// dispatch accounting.
type Outcome struct {
	Name    string
	Results []*Result
	// WallS is the whole sweep's wall time. Each job runs its own TM-off
	// warm-up prefix of WarmupWindows windows, so a sweep with a warm-up
	// runs WarmupGroups (one per job) of them; WarmupWallS sums the
	// prefixes' wall times as the jobs' results report them.
	WallS         float64
	WarmupWallS   float64
	WarmupGroups  int
	WarmupWindows int
	Workers       int
	// SessionFailures counts the worker sessions lost to link or worker
	// death, or ended for breaking the protocol; each one's held job was
	// re-queued.
	SessionFailures int
	// Deprecated: a job is never dispatched twice at once, so Steals is
	// always 0.
	Steals int
}

// Windows totals the committed sampling windows across the grid.
func (o *Outcome) Windows() int {
	n := 0
	for _, r := range o.Results {
		n += r.RunSummary.Windows
	}
	return n
}

// AggregateWindowsPerS is the sweep's headline throughput: grid windows
// emulated+solved per wall second, across all workers.
func (o *Outcome) AggregateWindowsPerS() float64 {
	if o.WallS <= 0 {
		return 0
	}
	return float64(o.Windows()) / o.WallS
}

// groupState tracks one job through dispatch: the grid points that share
// a warm-up key (at most maxJobPoints of them), which a worker runs as one
// co-emulation over one platform.
type groupState struct {
	points []int // grid indexes, in grid order
	label  string
	done   bool
}

// coordinator owns a sweep's dispatch state. The grid's points are grouped
// by warm-up key, and each group is one job. Sessions (one per connected
// worker) pull groups from a FIFO queue, and a group is held by one
// session at a time: only that session's death returns it to the queue.
type coordinator struct {
	opt           Options
	warmupWindows int // each job's TM-off prefix, 0 for none

	mu         sync.Mutex
	cond       *sync.Cond
	points     []Point
	results    []*Result // by grid index, once its group is done
	groups     []*groupState
	pending    []int // group indexes awaiting (re-)dispatch, FIFO
	doneCount  int   // groups done
	failed     error
	sessFails  int
	warmupWall time.Duration // summed over the done groups' results
}

// newCoordinator builds a coordinator over an expanded grid: one job per
// run of points sharing a WarmupKey, in order of each key's first point,
// split at maxJobPoints. With warmupWindows > 0 every job first runs its
// platform's TM-off prefix of that many windows, on the worker that runs
// it, and resumes its points from there.
func newCoordinator(points []Point, warmupWindows int, opt Options) *coordinator {
	c := &coordinator{opt: opt, warmupWindows: warmupWindows, points: points, results: make([]*Result, len(points))}
	c.cond = sync.NewCond(&c.mu)
	open := map[string]*groupState{}
	for i := range points {
		key := points[i].WarmupKey()
		g := open[key]
		if g == nil || len(g.points) == maxJobPoints {
			g = &groupState{}
			open[key] = g
			c.pending = append(c.pending, len(c.groups))
			c.groups = append(c.groups, g)
		}
		g.points = append(g.points, i)
	}
	for _, g := range c.groups {
		names := make([]string, len(g.points))
		for i, idx := range g.points {
			names[i] = points[idx].Name
		}
		g.label = strings.Join(names, ", ")
	}
	return c
}

// fail aborts the sweep with the first fatal error.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = err
	}
	c.cond.Broadcast()
}

// next blocks until a group is queued, the grid completes, or the sweep
// fails, and takes the head of the queue: re-queued groups first, then
// fresh ones in grid order.
func (c *coordinator) next() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failed != nil || c.doneCount == len(c.groups) {
			return 0, false
		}
		if len(c.pending) > 0 {
			gi := c.pending[0]
			c.pending = c.pending[1:]
			return gi, true
		}
		c.cond.Wait()
	}
}

// job builds the job message for group gi.
func (c *coordinator) job(gi int) *wireMsg {
	m := &wireMsg{Type: "job", ID: gi, WarmupWindows: c.warmupWindows}
	for _, idx := range c.groups[gi].points {
		p := &c.points[idx]
		m.Points = append(m.Points, jobPoint{ID: idx, Name: p.Name, Scenario: p.Scenario.Render()})
	}
	return m
}

// complete records the results of group gi, which the sending session
// held.
func (c *coordinator) complete(gi int, m *wireMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gi]
	if m.Error != "" {
		// A point that cannot run is a grid configuration error, not a
		// link fault: deterministic on every worker, so the sweep fails.
		return fmt.Errorf("sweep: job %s failed on worker %s: %s", g.label, m.Worker, m.Error)
	}
	if len(m.Results) != len(g.points) {
		return fmt.Errorf("sweep: %d results for the %d points of job %s from worker %s",
			len(m.Results), len(g.points), g.label, m.Worker)
	}
	for i, r := range m.Results {
		if r == nil || r.Point != g.points[i] {
			return fmt.Errorf("sweep: result %d of job %s from worker %s is not point %s",
				i, g.label, m.Worker, c.points[g.points[i]].Name)
		}
	}
	g.done = true
	for i, r := range m.Results {
		c.results[g.points[i]] = r
	}
	c.warmupWall += m.WarmupWall
	c.doneCount++
	c.cond.Broadcast()
	return nil
}

// release ends a session early while it holds group gi (-1 for none): it
// returns gi to the head of the queue, and counts a session failure unless
// dispatch is over, which it reports. A held group is never done: only
// its holder completes it, and that clears the hold first.
func (c *coordinator) release(gi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	clean := c.failed != nil || c.doneCount == len(c.groups)
	if !clean {
		c.sessFails++
	}
	if gi >= 0 {
		c.pending = append([]int{gi}, c.pending...)
		c.opt.logf("sweep: re-queueing %s after its session ended", c.groups[gi].label)
		c.cond.Broadcast()
	}
	return clean
}

// serveSession speaks the worker protocol over one transport until the
// grid completes or the session ends; the job it holds when it ends early
// is re-queued. It is safe to run one session per connected worker
// concurrently.
func (c *coordinator) serveSession(tr etherlink.Transport) error {
	// Closing the transport on exit releases a worker blocked on its next
	// message (e.g. when the sweep fails fatally): it sees the link die now
	// rather than after its full resend budget.
	defer tr.Close()
	ep := newEndpoint(tr, true, c.opt.sweepLink())
	held := -1 // the group of the job sent and not yet answered
	sessErr := func(err error) error {
		// A link death after completion is a normal exit.
		if c.release(held) {
			return nil
		}
		return err
	}
	for {
		m, err := recvMsg(ep)
		if err != nil {
			return sessErr(err)
		}
		switch m.Type {
		case "ready":
			if held >= 0 {
				return sessErr(fmt.Errorf("sweep: worker %s sent ready while it holds job %s",
					m.Worker, c.groups[held].label))
			}
			gi, ok := c.next()
			if !ok {
				err := sendMsg(ep, &wireMsg{Type: "done"})
				if c.failedErr() != nil {
					return c.failedErr()
				}
				return err
			}
			held = gi
			if err := sendMsg(ep, c.job(gi)); err != nil {
				return sessErr(err)
			}
		case "result":
			if held < 0 || m.ID != held {
				return sessErr(fmt.Errorf("sweep: worker %s sent a result for job %d, which it does not hold",
					m.Worker, m.ID))
			}
			held = -1
			if err := c.complete(m.ID, m); err != nil {
				c.fail(err)
				return err
			}
		default:
			err := fmt.Errorf("sweep: unexpected %q message from worker", m.Type)
			c.fail(err)
			return err
		}
	}
}

func (c *coordinator) failedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// outcome assembles the final report, failing if any point never finished.
func (c *coordinator) outcome(name string, workers int, wall time.Duration) (*Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return nil, c.failed
	}
	o := &Outcome{
		Name:            name,
		WallS:           wall.Seconds(),
		WarmupWallS:     c.warmupWall.Seconds(),
		WarmupWindows:   c.warmupWindows,
		Workers:         workers,
		SessionFailures: c.sessFails,
	}
	var missing []string
	for i, r := range c.results {
		if r == nil {
			missing = append(missing, c.points[i].Name)
			continue
		}
		o.Results = append(o.Results, r)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("sweep: %d point(s) never finished (every worker lost?): %v", len(missing), missing)
	}
	if c.warmupWindows > 0 {
		o.WarmupGroups = len(c.groups)
	}
	return o, nil
}

// Run executes a sweep with an in-process worker pool: opt.Workers
// loopback-linked workers (optionally behind chaos FaultTransports) drain
// the grid through the same session protocol distributed workers use.
func Run(spec *Spec, dir string, opt Options) (*Outcome, error) {
	points, err := spec.Expand(dir)
	if err != nil {
		return nil, err
	}
	return RunPoints(spec.Name, points, spec.WarmupWindows, opt)
}

// RunPoints is Run over an already-expanded grid.
func RunPoints(name string, points []Point, warmupWindows int, opt Options) (*Outcome, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	c := newCoordinator(points, warmupWindows, opt)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		devTr, coordTr := etherlink.LoopbackPair(256)
		var wtr etherlink.Transport = devTr
		if !opt.Fault.Zero() {
			seed := opt.FaultSeed
			if seed == 0 {
				seed = 1
			}
			wtr = etherlink.NewFaultTransport(devTr, seed+int64(i), opt.Fault, opt.Fault)
		}
		w := &Worker{Name: fmt.Sprintf("w%d", i), Link: opt.sweepLink(), Logf: opt.Logf}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := w.Serve(wtr); err != nil {
				opt.logf("sweep: worker %s: %v", w.Name, err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := c.serveSession(coordTr); err != nil {
				opt.logf("sweep: session: %v", err)
			}
		}()
	}
	wg.Wait()
	return c.outcome(name, workers, time.Since(start))
}

// Serve executes a sweep as a TCP coordinator: workers dial ln's address
// (cmd/sweep -worker) and each accepted connection becomes a session. Once
// the grid completes it closes the listener, lets every open session
// answer its worker's next ready with done and end, and then returns, so a
// coordinator process that exits on return never cuts a worker off before
// its done. The wait is bounded by the session idle budget; sessions still
// open then, or any open when the sweep fails, are closed.
func Serve(spec *Spec, dir string, ln net.Listener, opt Options) (*Outcome, error) {
	points, err := spec.Expand(dir)
	if err != nil {
		return nil, err
	}
	c := newCoordinator(points, spec.WarmupWindows, opt)
	start := time.Now()
	var (
		conns    []net.Conn // read only once accepting is closed
		sessions sync.WaitGroup
	)
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			opt.logf("sweep: worker connected from %s", conn.RemoteAddr())
			conns = append(conns, conn)
			sessions.Add(1)
			go func() {
				defer sessions.Done()
				if err := c.serveSession(etherlink.NewTCP(conn, 256)); err != nil {
					opt.logf("sweep: session %s: %v", conn.RemoteAddr(), err)
				}
			}()
		}
	}()
	// Wait for completion (or failure), then stop accepting.
	c.mu.Lock()
	for c.failed == nil && c.doneCount < len(c.groups) {
		c.cond.Wait()
	}
	c.mu.Unlock()
	wall := time.Since(start)
	ln.Close()
	<-accepting
	ended := make(chan struct{})
	go func() {
		sessions.Wait()
		close(ended)
	}()
	link := opt.sweepLink()
	budget := link.RetryTimeout * time.Duration(link.MaxRetries)
	if c.failedErr() != nil {
		budget = 0
	}
	select {
	case <-ended:
	case <-time.After(budget):
		for _, conn := range conns {
			conn.Close() // a no-op for the sessions that have ended
		}
	}
	return c.outcome(spec.Name, 0, wall)
}
