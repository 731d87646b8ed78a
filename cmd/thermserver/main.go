// Command thermserver is the host-PC side of the framework: it listens for
// devices (the FPGA-side emulation, cmd/thermemu with -host) on TCP,
// receives per-window power statistics as framework MAC frames, integrates
// the RC thermal model and feeds the new cell temperatures back in real
// time (Sections 5 and 6 of the paper). Each connection is served
// concurrently with its own thermal state; per-connection failures are
// logged and do not take the server down.
//
//	thermserver -listen :9077 -floorplan arm11 -cells 28 -metrics :9078
//
// With -metrics set, GET /metrics returns a JSON snapshot of the server and
// aggregate link-layer counters (frames, retries, gaps, CRC errors,
// congestion freezes, latency histogram).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"thermemu"
	"thermemu/internal/core"
	"thermemu/internal/etherlink"
)

func main() {
	var (
		listen  = flag.String("listen", ":9077", "TCP listen address")
		plan    = flag.String("floorplan", "arm11", "floorplan: arm7 | arm11")
		cells   = flag.Int("cells", 28, fmt.Sprintf("thermal cells for the floorplan grid (1-%d)", core.MaxCells))
		once    = flag.Bool("once", false, "serve a single connection, then exit")
		metrics = flag.String("metrics", "", "HTTP metrics listen address (empty = disabled)")
		idle    = flag.Duration("idle", 30*time.Second, "drop a connection silent for this long")
	)
	flag.Parse()
	if err := run(*listen, *plan, *cells, *once, *metrics, *idle); err != nil {
		fmt.Fprintln(os.Stderr, "thermserver:", err)
		os.Exit(1)
	}
}

// serverStats aggregates server-level counters across all connections.
type serverStats struct {
	Accepted    atomic.Uint64
	Active      atomic.Int64
	RunsOK      atomic.Uint64
	RunsFailed  atomic.Uint64
	link        etherlink.LinkStats
	startedUnix int64
}

// metricsSnapshot is the /metrics JSON document.
type metricsSnapshot struct {
	UptimeS    float64                `json:"uptime_s"`
	Accepted   uint64                 `json:"connections_accepted"`
	Active     int64                  `json:"connections_active"`
	RunsOK     uint64                 `json:"runs_ok"`
	RunsFailed uint64                 `json:"runs_failed"`
	Link       etherlink.LinkSnapshot `json:"link"`
}

func (s *serverStats) snapshot() metricsSnapshot {
	return metricsSnapshot{
		UptimeS:    time.Since(time.Unix(s.startedUnix, 0)).Seconds(),
		Accepted:   s.Accepted.Load(),
		Active:     s.Active.Load(),
		RunsOK:     s.RunsOK.Load(),
		RunsFailed: s.RunsFailed.Load(),
		Link:       s.link.Snapshot(),
	}
}

func run(listen, plan string, cells int, once bool, metricsAddr string,
	idle time.Duration) error {
	var fp *thermemu.Floorplan
	switch plan {
	case "arm7":
		fp = thermemu.FourARM7()
	case "arm11":
		fp = thermemu.FourARM11()
	default:
		return fmt.Errorf("unknown floorplan %q", plan)
	}
	if cells < 1 || cells > core.MaxCells {
		return fmt.Errorf("-cells must be between 1 and %d, got %d", core.MaxCells, cells)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer l.Close()

	stats := &serverStats{startedUnix: time.Now().Unix()}
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(stats.snapshot())
		})
		ml, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ml.Close()
		go http.Serve(ml, mux)
		fmt.Printf("thermserver: metrics on http://%s/metrics\n", ml.Addr())
	}

	fmt.Printf("thermserver: %s floorplan, %d thermal cells, listening on %s\n",
		fp.Name, cells, l.Addr())

	handle := func(conn net.Conn) {
		stats.Accepted.Add(1)
		stats.Active.Add(1)
		defer stats.Active.Add(-1)
		remote := conn.RemoteAddr()
		log.Printf("thermserver: device connected from %s", remote)
		// Fresh thermal state per connection, as the paper launches the
		// thermal tool per emulation run.
		host, err := thermemu.NewThermalHost(fp, cells)
		if err != nil {
			stats.RunsFailed.Add(1)
			log.Printf("thermserver: %s: thermal host: %v", remote, err)
			conn.Close()
			return
		}
		tr := etherlink.NewTCP(conn, 64)
		defer tr.Close()
		sopt := core.ServeOptions{Stats: &stats.link}
		if idle > 0 {
			// The recv loop's retry budget doubles as the idle timeout:
			// retries × timeout ≈ idle.
			sopt.Link.RetryTimeout = 250 * time.Millisecond
			sopt.Link.MaxRetries = int(idle / sopt.Link.RetryTimeout)
		}
		if err := host.ServeWith(tr, sopt); err != nil {
			stats.RunsFailed.Add(1)
			log.Printf("thermserver: %s: session ended: %v", remote, err)
			return
		}
		stats.RunsOK.Add(1)
		log.Printf("thermserver: %s: run complete (%.3f s simulated, max %.2f K)",
			remote, host.Model.Time(), host.Model.MaxTemp())
	}

	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if once {
			handle(conn)
			return nil
		}
		go handle(conn)
	}
}
