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
	// StragglerAfter is how long a dispatched job (a group of points that
	// share a platform) may stay in flight before an idle worker
	// re-dispatches it speculatively (work stealing). 0 takes the default
	// (2 s); negative disables stealing.
	StragglerAfter time.Duration
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

func (o *Options) stragglerAfter() time.Duration {
	if o.StragglerAfter == 0 {
		return 2 * time.Second
	}
	return o.StragglerAfter
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
	// Steals counts speculative re-dispatches of straggling jobs,
	// Duplicates the redundant job results that produced (each verified
	// digest-identical), SessionFailures the worker sessions lost to link
	// or worker death (their jobs were re-queued).
	Steals          int
	Duplicates      int
	SessionFailures int
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
	// assigned maps session id -> dispatch time for every in-flight copy
	// (more than one under stealing).
	assigned      map[int64]time.Time
	firstDispatch time.Time
}

// Coordinator owns a sweep's dispatch state. The grid's points are grouped
// by warm-up key, and each group is one job. Sessions (one per connected
// worker) pull groups from a FIFO queue; an idle session with an empty
// queue steals the oldest straggling in-flight group; a dead session's
// groups return to the queue; duplicate results must be digest-identical.
type Coordinator struct {
	opt           Options
	warmupWindows int // each job's TM-off prefix, 0 for none

	mu          sync.Mutex
	cond        *sync.Cond
	points      []Point
	results     []*Result // by grid index, once its group is done
	groups      []*groupState
	pending     []int // group indexes awaiting (re-)dispatch, FIFO
	doneCount   int   // groups done
	failed      error
	nextSession int64
	steals      int
	dups        int
	sessFails   int
	warmupWall  time.Duration // summed over the done groups' results
}

// NewCoordinator builds a coordinator over an expanded grid: one job per
// run of points sharing a WarmupKey, in order of each key's first point,
// split at maxJobPoints. With warmupWindows > 0 every job first runs its
// platform's TM-off prefix of that many windows, on the worker that runs
// it, and resumes its points from there.
func NewCoordinator(points []Point, warmupWindows int, opt Options) *Coordinator {
	c := &Coordinator{opt: opt, warmupWindows: warmupWindows, points: points, results: make([]*Result, len(points))}
	c.cond = sync.NewCond(&c.mu)
	open := map[string]*groupState{}
	for i := range points {
		key := points[i].WarmupKey()
		g := open[key]
		if g == nil || len(g.points) == maxJobPoints {
			g = &groupState{assigned: map[int64]time.Time{}}
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
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = err
	}
	c.cond.Broadcast()
}

// finished reports (under no lock) whether dispatch is over.
func (c *Coordinator) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed != nil || c.doneCount == len(c.groups)
}

// next blocks until a group is available for the session, the grid
// completes, or the sweep fails. It prefers the head of the
// re-dispatch/fresh FIFO; with nothing queued it steals the
// longest-in-flight straggler not already held by this session, once the
// straggler threshold passes.
func (c *Coordinator) next(sid int64) (int, bool) {
	straggler := c.opt.stragglerAfter()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failed != nil || c.doneCount == len(c.groups) {
			return 0, false
		}
		if len(c.pending) > 0 {
			gi := c.pending[0]
			c.pending = c.pending[1:]
			c.assignLocked(gi, sid)
			return gi, true
		}
		if straggler >= 0 {
			now := time.Now()
			best := -1
			var bestStart time.Time
			for i, g := range c.groups {
				if g.done || len(g.assigned) == 0 {
					continue
				}
				if _, mine := g.assigned[sid]; mine {
					continue
				}
				if now.Sub(g.firstDispatch) < straggler {
					continue
				}
				if best < 0 || g.firstDispatch.Before(bestStart) {
					best, bestStart = i, g.firstDispatch
				}
			}
			if best >= 0 {
				c.steals++
				c.opt.logf("sweep: stealing straggler %s (in flight %v)",
					c.groups[best].label, time.Since(bestStart).Round(time.Millisecond))
				c.assignLocked(best, sid)
				return best, true
			}
		}
		c.cond.Wait()
	}
}

// job builds the job message for group gi.
func (c *Coordinator) job(gi int) *wireMsg {
	m := &wireMsg{Type: "job", ID: gi, WarmupWindows: c.warmupWindows}
	for _, idx := range c.groups[gi].points {
		p := &c.points[idx]
		m.Points = append(m.Points, jobPoint{ID: idx, Name: p.Name, Scenario: p.Scenario.Render()})
	}
	return m
}

func (c *Coordinator) assignLocked(gi int, sid int64) {
	g := c.groups[gi]
	now := time.Now()
	g.assigned[sid] = now
	if g.firstDispatch.IsZero() {
		g.firstDispatch = now
	}
}

// complete records one group's results. A duplicate (the group was stolen
// and both copies finished) must carry the same digests — the determinism
// contract holds even for the redundant run — and is then dropped.
func (c *Coordinator) complete(sid int64, m *wireMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.ID < 0 || m.ID >= len(c.groups) {
		return fmt.Errorf("sweep: result for unknown job id %d from worker %s", m.ID, m.Worker)
	}
	g := c.groups[m.ID]
	delete(g.assigned, sid)
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
	if g.done {
		c.dups++
		for i, r := range m.Results {
			if had := c.results[g.points[i]]; had.Digest != r.Digest {
				return fmt.Errorf("sweep: point %s: duplicate result digest %s != %s — the grid is not deterministic",
					had.Name, r.Digest, had.Digest)
			}
		}
		return nil
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

// release returns a dead session's in-flight groups to the queue (unless
// another copy is still in flight or already done).
func (c *Coordinator) release(sid int64, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if failed {
		c.sessFails++
	}
	for i, g := range c.groups {
		if _, mine := g.assigned[sid]; !mine {
			continue
		}
		delete(g.assigned, sid)
		if !g.done && len(g.assigned) == 0 {
			c.pending = append([]int{i}, c.pending...)
			c.opt.logf("sweep: re-queueing %s after its session died", g.label)
		}
	}
	c.cond.Broadcast()
}

// ServeSession speaks the worker protocol over one transport until the
// grid completes or the link dies; on death its groups are re-queued. It
// is safe to run one session per connected worker concurrently.
func (c *Coordinator) ServeSession(tr etherlink.Transport) error {
	// Closing the transport on exit releases a worker blocked on its next
	// message (e.g. when the sweep fails fatally): it sees the link die now
	// rather than after its full resend budget.
	defer tr.Close()
	sid := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.nextSession++
		return c.nextSession
	}()
	ep := newEndpoint(tr, true, c.opt.sweepLink())
	sessErr := func(err error) error {
		// A link death after completion is a normal exit.
		clean := c.finished()
		c.release(sid, !clean)
		if clean {
			return nil
		}
		return err
	}
	held := -1 // the group of the job sent and not yet answered
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
			gi, ok := c.next(sid)
			if !ok {
				err := sendMsg(ep, &wireMsg{Type: "done"})
				c.release(sid, false)
				if c.failedErr() != nil {
					return c.failedErr()
				}
				return err
			}
			if err := sendMsg(ep, c.job(gi)); err != nil {
				return sessErr(err)
			}
			held = gi
		case "result":
			held = -1
			if err := c.complete(sid, m); err != nil {
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

func (c *Coordinator) failedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// wake periodically broadcasts so sessions waiting in next re-evaluate the
// straggler threshold, every quarter threshold between 1 ms and 1 s, so a
// straggler is stolen within 1.25 thresholds; it stops when stop is closed.
func (c *Coordinator) wake(stop <-chan struct{}) {
	straggler := c.opt.stragglerAfter()
	if straggler < 0 {
		return
	}
	interval := straggler / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.cond.Broadcast()
		}
	}
}

// outcome assembles the final report, failing if any point never finished.
func (c *Coordinator) outcome(name string, workers int, wall time.Duration) (*Outcome, error) {
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
		Steals:          c.steals,
		Duplicates:      c.dups,
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
	c := NewCoordinator(points, warmupWindows, opt)
	start := time.Now()
	stop := make(chan struct{})
	go c.wake(stop)
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
			if err := c.ServeSession(coordTr); err != nil {
				opt.logf("sweep: session: %v", err)
			}
		}()
	}
	wg.Wait()
	close(stop)
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
	c := NewCoordinator(points, spec.WarmupWindows, opt)
	start := time.Now()
	stop := make(chan struct{})
	go c.wake(stop)
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
				if err := c.ServeSession(etherlink.NewTCP(conn, 256)); err != nil {
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
	close(stop)
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
