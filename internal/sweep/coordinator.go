package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"thermemu/internal/etherlink"
)

// Options tunes a sweep run.
type Options struct {
	// Workers is the in-process worker-pool size for Run (ignored by
	// Serve, where workers dial in). Default 1.
	Workers int
	// StragglerAfter is how long a dispatched point may stay in flight
	// before an idle worker re-dispatches it speculatively (work
	// stealing). 0 takes the default (2 s); negative disables stealing.
	StragglerAfter time.Duration
	// Fault, when non-zero, wraps every in-process worker link in a
	// FaultTransport (both directions) seeded with FaultSeed+workerIndex:
	// chaos soak for the dispatch protocol.
	Fault     etherlink.FaultConfig
	FaultSeed int64
	// Link tunes the reliable endpoint protocol of every session (zero
	// fields take sweep defaults: a window sized for checkpoint-carrying
	// jobs and a 60 s idle budget to cover long points).
	Link etherlink.ReliableConfig
	// Logf, when non-nil, observes dispatch events.
	Logf func(format string, args ...any)
}

// sweepLink fills the Options.Link defaults. Jobs carry warm-up
// checkpoints (megabytes chunked into ~1.5 kB frames), so the go-back-N
// resend window must span a whole job burst; the idle budget must outlast
// the slowest point a worker computes between protocol messages.
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
	// WallS is the whole sweep's wall time including warm-up cutting;
	// WarmupWallS is the warm-up share of it.
	WallS         float64
	WarmupWallS   float64
	WarmupGroups  int
	WarmupWindows int
	Workers       int
	// WarmupSends counts the job messages that carried warm-up checkpoint
	// bytes: a worker is sent a checkpoint only when it does not already
	// hold it.
	WarmupSends int
	// Steals counts speculative re-dispatches of straggling points,
	// Duplicates the redundant results that produced (each verified
	// digest-identical), SessionFailures the worker sessions lost to link
	// or worker death (their points were re-queued).
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

// warmup is one shared warm-up prefix checkpoint. Its id, a digest of the
// bytes, is the key a job names and a worker reports holding.
type warmup struct {
	id string
	ck []byte
}

// pointState tracks one grid point through dispatch.
type pointState struct {
	point     Point
	warmupKey string
	warmup    *warmup // nil until CutWarmups, and in sweeps without warm-ups
	done      bool
	result    *Result
	// assigned maps session id -> dispatch time for every in-flight copy
	// (more than one under stealing).
	assigned      map[int64]time.Time
	firstDispatch time.Time
}

// Coordinator owns a sweep's dispatch state. Sessions (one per connected
// worker) pull points from a FIFO queue, preferring points whose warm-up
// the worker already holds; an idle session with an empty queue steals the
// oldest straggling in-flight point; a dead session's points return to the
// queue; duplicate results must be digest-identical.
type Coordinator struct {
	opt Options

	mu          sync.Mutex
	cond        *sync.Cond
	st          []*pointState
	pending     []int // point indexes awaiting (re-)dispatch, FIFO
	doneCount   int
	failed      error
	nextSession int64
	steals      int
	dups        int
	sessFails   int
	warmupSends int
}

// NewCoordinator builds a coordinator over an expanded grid. Call
// CutWarmups before serving if the sweep shares warm-up prefixes.
func NewCoordinator(points []Point, opt Options) *Coordinator {
	c := &Coordinator{opt: opt}
	c.cond = sync.NewCond(&c.mu)
	for i := range points {
		c.st = append(c.st, &pointState{
			point:     points[i],
			warmupKey: points[i].WarmupKey(),
			assigned:  map[int64]time.Time{},
		})
		c.pending = append(c.pending, i)
	}
	return c
}

// CutWarmups runs each distinct platform's TM-off warm-up prefix once
// (grouped by WarmupKey, up to parallel of them concurrently) and stores
// the encoded checkpoints for dispatch. It returns the group count.
func (c *Coordinator) CutWarmups(windows, parallel int) (int, error) {
	type group struct {
		key   string
		point Point
	}
	var groups []group
	seen := map[string]bool{}
	for _, st := range c.st {
		if !seen[st.warmupKey] {
			seen[st.warmupKey] = true
			groups = append(groups, group{st.warmupKey, st.point})
		}
	}
	if parallel < 1 {
		parallel = 1
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []error
		sem     = make(chan struct{}, parallel)
		warmups = map[string]*warmup{}
	)
	for _, g := range groups {
		wg.Add(1)
		go func(g group) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ck, err := CutWarmup(g.point.Scenario, windows)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("point %s: %w", g.point.Name, err))
				return
			}
			sum := sha256.Sum256(ck)
			warmups[g.key] = &warmup{id: hex.EncodeToString(sum[:12]), ck: ck}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("sweep: warm-up: %w", err)
	}
	for _, st := range c.st {
		st.warmup = warmups[st.warmupKey]
	}
	c.opt.logf("sweep: cut %d warm-up prefix checkpoint(s) at window %d", len(groups), windows)
	return len(groups), nil
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
	return c.failed != nil || c.doneCount == len(c.st)
}

// next blocks until a point is available for the session, the grid
// completes, or the sweep fails. It prefers the re-dispatch/fresh FIFO,
// taking the oldest queued point whose warm-up is the one the worker holds
// (have) and otherwise the head; with nothing queued it steals the
// longest-in-flight straggler not already held by this session, once the
// straggler threshold passes.
func (c *Coordinator) next(sid int64, have string) (int, bool) {
	straggler := c.opt.stragglerAfter()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failed != nil || c.doneCount == len(c.st) {
			return 0, false
		}
		if len(c.pending) > 0 {
			at := 0
			for i, idx := range c.pending {
				if w := c.st[idx].warmup; w != nil && w.id == have {
					at = i
					break
				}
			}
			idx := c.pending[at]
			c.pending = append(c.pending[:at], c.pending[at+1:]...)
			c.assignLocked(idx, sid)
			return idx, true
		}
		if straggler >= 0 {
			now := time.Now()
			best := -1
			var bestStart time.Time
			for i, st := range c.st {
				if st.done || len(st.assigned) == 0 {
					continue
				}
				if _, mine := st.assigned[sid]; mine {
					continue
				}
				if now.Sub(st.firstDispatch) < straggler {
					continue
				}
				if best < 0 || st.firstDispatch.Before(bestStart) {
					best, bestStart = i, st.firstDispatch
				}
			}
			if best >= 0 {
				c.steals++
				c.opt.logf("sweep: stealing straggler %s (in flight %v)",
					c.st[best].point.Name, time.Since(bestStart).Round(time.Millisecond))
				c.assignLocked(best, sid)
				return best, true
			}
		}
		c.cond.Wait()
	}
}

// job builds the job message for point idx, carrying the warm-up
// checkpoint bytes only when the worker does not already hold them.
func (c *Coordinator) job(idx int, have string) *wireMsg {
	st := c.st[idx]
	m := &wireMsg{Type: "job", ID: idx, Name: st.point.Name, Scenario: st.point.Scenario.Render()}
	if w := st.warmup; w != nil {
		m.WarmupKey = w.id
		if w.id != have {
			m.Warmup = w.ck
			c.mu.Lock()
			c.warmupSends++
			c.mu.Unlock()
		}
	}
	return m
}

func (c *Coordinator) assignLocked(idx int, sid int64) {
	st := c.st[idx]
	now := time.Now()
	st.assigned[sid] = now
	if st.firstDispatch.IsZero() {
		st.firstDispatch = now
	}
}

// complete records one result. A duplicate (the point was stolen and both
// copies finished) must carry the same digest — the determinism contract
// holds even for the redundant run — and is then dropped.
func (c *Coordinator) complete(sid int64, m *wireMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.ID < 0 || m.ID >= len(c.st) {
		return fmt.Errorf("sweep: result for unknown point id %d from worker %s", m.ID, m.Worker)
	}
	st := c.st[m.ID]
	delete(st.assigned, sid)
	if m.Error != "" {
		// A point that cannot run is a grid configuration error, not a
		// link fault: deterministic on every worker, so the sweep fails.
		return fmt.Errorf("sweep: point %s failed on worker %s: %s", st.point.Name, m.Worker, m.Error)
	}
	if m.Result == nil {
		return fmt.Errorf("sweep: empty result for point %s from worker %s", st.point.Name, m.Worker)
	}
	if st.done {
		c.dups++
		if st.result.Digest != m.Result.Digest {
			return fmt.Errorf("sweep: point %s: duplicate result digest %s != %s — the grid is not deterministic",
				st.point.Name, m.Result.Digest, st.result.Digest)
		}
		return nil
	}
	st.done = true
	st.result = m.Result
	c.doneCount++
	c.cond.Broadcast()
	return nil
}

// release returns a dead session's in-flight points to the queue (unless
// another copy is still in flight or already done).
func (c *Coordinator) release(sid int64, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if failed {
		c.sessFails++
	}
	for i, st := range c.st {
		if _, mine := st.assigned[sid]; !mine {
			continue
		}
		delete(st.assigned, sid)
		if !st.done && len(st.assigned) == 0 {
			c.pending = append([]int{i}, c.pending...)
			c.opt.logf("sweep: re-queueing %s after its session died", st.point.Name)
		}
	}
	c.cond.Broadcast()
}

// ServeSession speaks the worker protocol over one transport until the
// grid completes or the link dies; on death its points are re-queued. It
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
	held := -1 // the point of the job sent and not yet answered
	for {
		m, err := recvMsg(ep)
		if err != nil {
			return sessErr(err)
		}
		switch m.Type {
		case "ready":
			if held >= 0 {
				return sessErr(fmt.Errorf("sweep: worker %s sent ready while it holds point %s",
					m.Worker, c.st[held].point.Name))
			}
			idx, ok := c.next(sid, m.Have)
			if !ok {
				err := sendMsg(ep, &wireMsg{Type: "done"})
				c.release(sid, false)
				if c.failedErr() != nil {
					return c.failedErr()
				}
				return err
			}
			if err := sendMsg(ep, c.job(idx, m.Have)); err != nil {
				return sessErr(err)
			}
			held = idx
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
func (c *Coordinator) outcome(name string, workers int, wall, warmupWall time.Duration, warmupWindows, warmupGroups int) (*Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return nil, c.failed
	}
	o := &Outcome{
		Name:            name,
		WallS:           wall.Seconds(),
		WarmupWallS:     warmupWall.Seconds(),
		WarmupGroups:    warmupGroups,
		WarmupWindows:   warmupWindows,
		WarmupSends:     c.warmupSends,
		Workers:         workers,
		Steals:          c.steals,
		Duplicates:      c.dups,
		SessionFailures: c.sessFails,
	}
	var missing []string
	for _, st := range c.st {
		if !st.done {
			missing = append(missing, st.point.Name)
			continue
		}
		o.Results = append(o.Results, st.result)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("sweep: %d point(s) never finished (every worker lost?): %v", len(missing), missing)
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
	c := NewCoordinator(points, opt)
	start := time.Now()
	warmupGroups := 0
	var warmupWall time.Duration
	if warmupWindows > 0 {
		var err error
		if warmupGroups, err = c.CutWarmups(warmupWindows, workers); err != nil {
			return nil, err
		}
		warmupWall = time.Since(start)
	}
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
	return c.outcome(name, workers, time.Since(start), warmupWall, warmupWindows, warmupGroups)
}

// Serve executes a sweep as a TCP coordinator: workers dial ln's address
// (cmd/sweep -worker) and each accepted connection becomes a session. It
// returns once the grid completes or fails; the listener is closed but
// established sessions finish their last exchanges on their own.
func Serve(spec *Spec, dir string, ln net.Listener, opt Options) (*Outcome, error) {
	points, err := spec.Expand(dir)
	if err != nil {
		return nil, err
	}
	c := NewCoordinator(points, opt)
	start := time.Now()
	warmupGroups := 0
	var warmupWall time.Duration
	if spec.WarmupWindows > 0 {
		parallel := opt.Workers
		if parallel < 1 {
			parallel = 1
		}
		if warmupGroups, err = c.CutWarmups(spec.WarmupWindows, parallel); err != nil {
			return nil, err
		}
		warmupWall = time.Since(start)
	}
	stop := make(chan struct{})
	go c.wake(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			opt.logf("sweep: worker connected from %s", conn.RemoteAddr())
			go func() {
				if err := c.ServeSession(etherlink.NewTCP(conn, 256)); err != nil {
					opt.logf("sweep: session %s: %v", conn.RemoteAddr(), err)
				}
			}()
		}
	}()
	// Wait for completion (or failure), then stop accepting.
	c.mu.Lock()
	for c.failed == nil && c.doneCount < len(c.st) {
		c.cond.Wait()
	}
	c.mu.Unlock()
	close(stop)
	ln.Close()
	return c.outcome(spec.Name, 0, time.Since(start), warmupWall, spec.WarmupWindows, warmupGroups)
}
