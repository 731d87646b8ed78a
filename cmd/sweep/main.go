// Command sweep runs design-space exploration grids: it expands a
// versioned sweep-spec file into (scenario × workload × policy × floorplan
// × frequency) points, groups the points that share a platform (they
// differ only in TM policy) into one job each, dispatches each job to one
// worker at a time (re-queued only if that worker's session ends early),
// and merges the per-point results into the benchgate line format. A
// worker runs a job as one co-emulation: the platform is emulated once for
// all of the job's policies, each with its own clock, thermal host and
// digest. With a warm-up, the worker first runs the platform's TM-off
// prefix and starts every policy from that in-memory cut; no checkpoint
// crosses the wire.
//
// Single machine (in-process worker pool):
//
//	sweep -spec examples/scenarios/noc-grid.sweep -workers 4 -out sweep.txt
//
// Distributed (one coordinator, workers anywhere):
//
//	sweep -spec grid.sweep -listen :9080
//	sweep -worker -connect coordinator:9080 -name rack2   (per worker host)
//
// Every point's golden digest is bit-identical to the same scenario run
// serially through cmd/thermemu — whichever worker ran it, in whatever
// group, however faulty the link (-fault injects chaos on in-process
// worker links).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"thermemu/internal/etherlink"
	"thermemu/internal/sweep"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "sweep spec file (required unless -worker)")
		workers   = flag.Int("workers", 4, "in-process worker pool size (coordinator without -listen)")
		outPath   = flag.String("out", "", "write the benchgate-format result lines to this file")
		fault     = flag.String("fault", "", "inject link faults on in-process worker links, e.g. drop=0.01,dup=0.005,reorder=0.01,corrupt=0.001")
		faultSeed = flag.Int64("fault-seed", 1, "PRNG seed base for -fault (worker i uses seed+i)")
		listen    = flag.String("listen", "", "serve the grid over TCP on this address instead of the in-process pool")
		worker    = flag.Bool("worker", false, "run as a worker process instead of a coordinator")
		connect   = flag.String("connect", "", "coordinator address to dial (-worker)")
		name      = flag.String("name", "", "worker name reported to the coordinator (-worker; default host PID)")
		redial    = flag.Bool("redial", false, "worker: on session loss, redial the coordinator with backoff and start a fresh session")
		verbose   = flag.Bool("v", false, "log dispatch events")
	)
	flag.Parse()
	if err := run(*specPath, *workers, *outPath, *fault, *faultSeed,
		*listen, *worker, *connect, *name, *redial, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(specPath string, workers int, outPath, fault string, faultSeed int64,
	listen string, worker bool, connect, name string, redial, verbose bool) error {
	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	if worker {
		if connect == "" {
			return fmt.Errorf("-worker requires -connect")
		}
		return runWorker(connect, name, redial, logf)
	}
	if specPath == "" {
		return fmt.Errorf("-spec is required (or -worker -connect)")
	}
	spec, err := sweep.LoadSpec(specPath)
	if err != nil {
		return err
	}
	fcfg, err := etherlink.ParseFaultSpec(fault)
	if err != nil {
		return err
	}
	opt := sweep.Options{
		Workers:   workers,
		Fault:     fcfg,
		FaultSeed: faultSeed,
		Logf:      logf,
	}
	dir := filepath.Dir(specPath)
	var out *sweep.Outcome
	if listen != "" {
		if !fcfg.Zero() {
			return fmt.Errorf("-fault applies to in-process worker links; with -listen, wrap the workers' dials instead")
		}
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return err
		}
		fmt.Printf("sweep: serving %s on %s — start workers with: sweep -worker -connect %s\n",
			spec.Name, ln.Addr(), ln.Addr())
		out, err = sweep.Serve(spec, dir, ln, opt)
		if err != nil {
			return err
		}
	} else {
		out, err = sweep.Run(spec, dir, opt)
		if err != nil {
			return err
		}
	}
	if err := out.WriteTable(os.Stdout); err != nil {
		return err
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := out.WriteBench(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// runWorker serves sweep jobs as a worker process. Each session dials the
// coordinator afresh, retrying a refused dial with capped exponential
// backoff; a session lost mid-grid starts over on a new connection when
// -redial is set — the coordinator re-queues whatever the death stranded.
func runWorker(addr, name string, redial bool, logf func(string, ...any)) error {
	const (
		dialAttempts   = 8
		initialBackoff = 100 * time.Millisecond
		maxBackoff     = 5 * time.Second
	)
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &sweep.Worker{Name: name, Logf: logf}
	for session := 0; ; session++ {
		tr, err := etherlink.Dial(addr, 64)
		for backoff, attempt := initialBackoff, 1; err != nil && attempt < dialAttempts; attempt++ {
			logf("sweep: %s: %v (attempt %d/%d); retrying in %v", name, err, attempt, dialAttempts, backoff)
			time.Sleep(backoff)
			backoff = min(2*backoff, maxBackoff)
			tr, err = etherlink.Dial(addr, 64)
		}
		if err != nil {
			if session > 0 {
				// The grid is most likely finished and the coordinator gone.
				logf("sweep: %s: coordinator gone, exiting", name)
				return nil
			}
			return err
		}
		err = w.Serve(tr)
		if err == nil {
			return nil // done received
		}
		if !redial {
			return err
		}
		logf("sweep: %s: session lost (%v), redialing", name, err)
	}
}
