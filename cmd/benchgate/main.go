// Command benchgate enforces the benchmark performance contracts on
// `go test -json` benchmark streams recorded by CI.
//
// Closed-loop mode (default) checks BENCH_loop.json. Rows are keyed by name
// and maxprocs, and the contracts hold at every processor count recorded
// (CI records `-cpu 1,2`):
//
//   - BenchmarkClosedLoopPipelinedLink must beat BenchmarkClosedLoopSerialLink
//     in windows/s: pipelining exists to hide link latency, and that win is
//     processor-count independent.
//   - BenchmarkClosedLoopPipelined must beat BenchmarkClosedLoopSerial when
//     the run has more than one processor; at one processor, where overlap
//     is physically impossible, it must stay within 10% of serial (the
//     pipeline's bookkeeping overhead budget).
//   - Neither the serial (depth 0) nor the pipelined steady state may
//     allocate per window: both average under one allocation per window.
//
// Emulation-kernel mode (-emu) compares a fresh BENCH_emu.json against the
// committed baseline: every BenchmarkRunSerial variant present in the
// baseline must still exist and must retain at least -ratio
// of its cycles/s (the slack absorbs runner noise). Rows are keyed by name
// and maxprocs, so a `-cpu 1,2` run keeps one row per processor count.
// Kernel PRs may only make these numbers go up; their golden digests prove
// nothing else moved.
//
// Coverage mode (-cover) computes total statement coverage from a
// `go test -coverprofile` file and gates it against the committed
// COVERAGE.baseline: a PR may not lower coverage by more than -slack
// percentage points. When coverage rises past the baseline the gate still
// passes but asks for a baseline refresh, so the floor ratchets upward.
//
// Sweep mode (-sweep) gates BenchmarkSweep* rows (from the go test
// benchmarks or a `cmd/sweep -out` artifact) against a baseline. Rows are
// keyed by name and maxprocs (CI records `-cpu 1,2`). Every baseline row
// must retain -ratio of its windows/s, and at every processor count whose
// canonical scaling rows are present the contracts hold — Workers4 beats
// Workers1 (above one CPU; within 15% on one CPU), Workers8 holds 80% of
// Workers4, and the shared-prefix warm-up grid beats the cold one in
// wall time. Across processor counts, Workers4 at every count above one
// must beat Workers4 at one: the sweep is where host parallelism pays.
// Grouping binds when its rows are present: the three policies of one
// platform run as one job (BenchmarkSweepGroup) take less than twice the
// wall time of one of them alone (BenchmarkSweepSolo), which only one
// emulation for all three allows.
//
// Promote mode (-promote) atomically replaces a baseline with its freshly
// regenerated BASELINE.new sibling, so refreshes are a rename — a stray
// `.new` file can never linger as the accidental baseline (CI rejects any
// tracked *.json.new).
//
// Usage: benchgate [BENCH_loop.json]
//
//	benchgate -emu [-ratio 0.8] NEW_BENCH_emu.json BASELINE_BENCH_emu.json
//	benchgate -cover [-slack 0.3] coverage.out COVERAGE.baseline
//	benchgate -sweep [-ratio 0.8] NEW_BENCH_sweep.json BASELINE_BENCH_sweep.json
//	benchgate -promote BASELINE_BENCH_emu.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's output we care about.
type event struct {
	Action string
	Output string
}

// metrics of one benchmark result line.
type metrics struct {
	windowsPerS float64
	cyclesPerS  float64
	nsPerOp     float64
	allocsPerW  float64
	hasAllocs   bool
	maxprocs    float64
}

var (
	loopResultLine  = regexp.MustCompile(`^(BenchmarkClosedLoop\w+?)(?:-\d+)?\s+\d+\s+(.*)$`)
	emuResultLine   = regexp.MustCompile(`^(BenchmarkRunSerial\S*?)(?:-\d+)?\s+\d+\s+(.*)$`)
	sweepResultLine = regexp.MustCompile(`^(BenchmarkSweep\S*?)(?:-\d+)?\s+\d+\s+(.*)$`)
)

// readText reassembles the raw test output of a `go test -json` stream:
// test2json splits benchmark result lines across events (name first,
// numbers later). Plain `go test -bench` output passes through untouched.
func readText(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()

	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			text.WriteString(sc.Text())
			text.WriteByte('\n')
			continue
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return text.String(), nil
}

// parse collects the benchmark rows matching result, keyed by name, or by
// name and maxprocs when byProcs is set (rows without a maxprocs metric
// keep the bare name).
func parse(path string, result *regexp.Regexp, byProcs bool) (map[string]metrics, error) {
	text, err := readText(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metrics)
	for _, line := range strings.Split(text, "\n") {
		m := result.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		var mt metrics
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "windows/s":
				mt.windowsPerS = v
			case "cycles/s":
				mt.cyclesPerS = v
			case "ns/op":
				mt.nsPerOp = v
			case "allocs/window":
				mt.allocsPerW = v
				mt.hasAllocs = true
			case "maxprocs":
				mt.maxprocs = v
			}
		}
		key := m[1]
		if byProcs && mt.maxprocs > 0 {
			key = procsKey(key, int(mt.maxprocs))
		}
		out[key] = mt
	}
	return out, nil
}

// procsKey is the row key of a benchmark at one processor count.
func procsKey(name string, procs int) string {
	return fmt.Sprintf("%s (maxprocs %d)", name, procs)
}

// sortedKeys returns the row keys of res in order, for stable reports.
func sortedKeys(res map[string]metrics) []string {
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// procCounts returns the distinct maxprocs values recorded in res, sorted.
func procCounts(res map[string]metrics) []int {
	seen := make(map[int]bool)
	var procs []int
	for _, m := range res {
		if p := int(m.maxprocs); p > 0 && !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	sort.Ints(procs)
	return procs
}

// checker prints one ok/FAIL line per contract and remembers any failure.
type checker struct{ fail int }

func (c *checker) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		c.fail = 1
	}
	fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
}

func gateLoop(path string) int {
	res, err := parse(path, loopResultLine, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	procs := procCounts(res)
	if len(procs) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no closed-loop rows with a maxprocs metric in %s\n", path)
		return 2
	}

	var c checker
	for _, p := range procs {
		get := func(name string) metrics {
			key := procsKey(name, p)
			m, ok := res[key]
			if !ok || m.windowsPerS == 0 {
				fmt.Fprintf(os.Stderr, "benchgate: %s missing from %s\n", key, path)
				os.Exit(2)
			}
			return m
		}
		serial := get("BenchmarkClosedLoopSerial")
		pipe := get("BenchmarkClosedLoopPipelined")
		serialLink := get("BenchmarkClosedLoopSerialLink")
		pipeLink := get("BenchmarkClosedLoopPipelinedLink")

		c.check(pipeLink.windowsPerS > serialLink.windowsPerS,
			"link (%d cpus): pipelined %.1f windows/s vs serial %.1f windows/s",
			p, pipeLink.windowsPerS, serialLink.windowsPerS)
		if p > 1 {
			c.check(pipe.windowsPerS > serial.windowsPerS,
				"in-process (%d cpus): pipelined %.1f windows/s vs serial %.1f windows/s",
				p, pipe.windowsPerS, serial.windowsPerS)
		} else {
			c.check(pipe.windowsPerS >= 0.9*serial.windowsPerS,
				"in-process (1 cpu, parity gate): pipelined %.1f windows/s vs serial %.1f windows/s",
				pipe.windowsPerS, serial.windowsPerS)
		}
		for _, row := range []struct {
			name string
			m    metrics
		}{{"serial", serial}, {"pipelined", pipe}} {
			if row.m.hasAllocs {
				c.check(row.m.allocsPerW < 1,
					"%s steady state (%d cpus): %.2f allocs/window", row.name, p, row.m.allocsPerW)
			} else {
				c.check(false, "%s allocs/window metric missing (%d cpus)", row.name, p)
			}
		}
	}
	return c.fail
}

func gateEmu(newPath, basePath string, ratio float64) int {
	fresh, err := parse(newPath, emuResultLine, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	base, err := parse(basePath, emuResultLine, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no kernel benchmark results in baseline %s\n", basePath)
		return 2
	}

	var c checker
	for _, name := range sortedKeys(base) {
		old := base[name]
		got, ok := fresh[name]
		if !ok || got.cyclesPerS == 0 {
			c.check(false, "%s: present in baseline but missing from %s", name, newPath)
			continue
		}
		c.check(got.cyclesPerS >= ratio*old.cyclesPerS,
			"%s: %.3g cycles/s vs baseline %.3g (floor %.0f%%)",
			name, got.cyclesPerS, old.cyclesPerS, ratio*100)
	}
	// Variants that exist only in the fresh run are new benchmarks: report
	// them so the baseline gets refreshed, but do not fail.
	for _, name := range sortedKeys(fresh) {
		if _, ok := base[name]; !ok {
			fmt.Printf("new  %s: %.3g cycles/s (not in baseline)\n", name, fresh[name].cyclesPerS)
		}
	}
	return c.fail
}

// gateSweep compares a fresh BenchmarkSweep* run against the committed
// baseline. Rows are matched by name and maxprocs: throughput rows
// (windows/s) must retain -ratio of the baseline rate, wall-time-only rows
// (ns/op) must not grow past 1/-ratio of the baseline. On top of per-row
// retention the scaling contracts bind whenever their canonical rows exist
// in the fresh run — they encode *why* the sweep coordinator is worth
// having.
func gateSweep(newPath, basePath string, ratio float64) int {
	fresh, err := parse(newPath, sweepResultLine, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	base, err := parse(basePath, sweepResultLine, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no sweep benchmark results in baseline %s\n", basePath)
		return 2
	}

	var c checker
	for _, name := range sortedKeys(base) {
		old := base[name]
		got, ok := fresh[name]
		if !ok {
			c.check(false, "%s: present in baseline but missing from %s", name, newPath)
			continue
		}
		switch {
		case old.windowsPerS > 0:
			c.check(got.windowsPerS >= ratio*old.windowsPerS,
				"%s: %.1f windows/s vs baseline %.1f (floor %.0f%%)",
				name, got.windowsPerS, old.windowsPerS, ratio*100)
		case old.nsPerOp > 0:
			c.check(got.nsPerOp <= old.nsPerOp/ratio,
				"%s: %.3gs wall vs baseline %.3gs (ceiling %.0f%%)",
				name, got.nsPerOp/1e9, old.nsPerOp/1e9, 100/ratio)
		default:
			c.check(false, "%s: baseline row has neither windows/s nor ns/op", name)
		}
	}

	// Scaling contracts at each processor count: aggregate throughput must
	// grow with the worker pool when the runner has CPUs to back it, and
	// may only pay a bounded coordination tax when it does not (single-CPU
	// parity gates, like the closed-loop pipeline's).
	procs := procCounts(fresh)
	for _, p := range procs {
		w1, ok1 := fresh[procsKey("BenchmarkSweepWorkers1", p)]
		w4, ok4 := fresh[procsKey("BenchmarkSweepWorkers4", p)]
		w8, ok8 := fresh[procsKey("BenchmarkSweepWorkers8", p)]
		if ok1 && ok4 {
			if p > 1 {
				c.check(w4.windowsPerS > w1.windowsPerS,
					"scaling (%d cpus): 4 workers %.1f windows/s vs 1 worker %.1f windows/s",
					p, w4.windowsPerS, w1.windowsPerS)
			} else {
				c.check(w4.windowsPerS >= 0.85*w1.windowsPerS,
					"scaling (1 cpu, parity gate): 4 workers %.1f windows/s vs 1 worker %.1f windows/s",
					w4.windowsPerS, w1.windowsPerS)
			}
		}
		if ok4 && ok8 {
			c.check(w8.windowsPerS >= 0.8*w4.windowsPerS,
				"saturation (%d cpus): 8 workers %.1f windows/s vs 4 workers %.1f windows/s (floor 80%%)",
				p, w8.windowsPerS, w4.windowsPerS)
		}
		cold, okC := fresh[procsKey("BenchmarkSweepWarmupCold", p)]
		shared, okS := fresh[procsKey("BenchmarkSweepWarmupShared", p)]
		if okC && okS {
			c.check(shared.nsPerOp < cold.nsPerOp,
				"warm-up sharing (%d cpus): shared prefix %.3gs wall vs cold %.3gs wall",
				p, shared.nsPerOp/1e9, cold.nsPerOp/1e9)
		}
		group, okG := fresh[procsKey("BenchmarkSweepGroup", p)]
		solo, okO := fresh[procsKey("BenchmarkSweepSolo", p)]
		if okG && okO {
			c.check(group.nsPerOp < 2*solo.nsPerOp,
				"grouping (%d cpus): 3 policies as one job %.3gs wall vs 1 point %.3gs wall (ceiling 2x)",
				p, group.nsPerOp/1e9, solo.nsPerOp/1e9)
		}
	}

	// Cross-processor contract: the same 4-worker grid must run faster
	// when the host gives it more CPUs. A multi-CPU row without its
	// one-CPU reference fails, so the contract cannot be skipped silently.
	one, okOne := fresh[procsKey("BenchmarkSweepWorkers4", 1)]
	for _, p := range procs {
		wN, ok := fresh[procsKey("BenchmarkSweepWorkers4", p)]
		if p <= 1 || !ok {
			continue
		}
		if !okOne {
			c.check(false, "host scaling (%d cpus): BenchmarkSweepWorkers4 at maxprocs 1 missing from %s", p, newPath)
			continue
		}
		c.check(wN.windowsPerS > one.windowsPerS,
			"host scaling: 4 workers at %d cpus %.1f windows/s vs at 1 cpu %.1f windows/s",
			p, wN.windowsPerS, one.windowsPerS)
	}

	for _, name := range sortedKeys(fresh) {
		if _, ok := base[name]; !ok {
			fmt.Printf("new  %s: not in baseline\n", name)
		}
	}
	return c.fail
}

// promote replaces a baseline with its regenerated BASELINE.new sibling in
// one rename, so a refresh either fully lands or leaves the old baseline
// untouched — and no *.json.new file survives to be committed by accident.
func promote(basePath string) int {
	newPath := basePath + ".new"
	if _, err := os.Stat(newPath); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: nothing to promote: %v\n", err)
		return 2
	}
	if err := os.Rename(newPath, basePath); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	fmt.Printf("promoted %s -> %s\n", newPath, basePath)
	return 0
}

// parseCoverProfile totals the statements of a `go test -coverprofile`
// file. With -coverpkg each test binary reports every instrumented package,
// so the same block appears once per binary; blocks are merged by key with
// execution counts summed, and a statement counts as covered when any
// binary ran it.
func parseCoverProfile(path string) (covered, total int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()

	type block struct {
		stmts int
		count int
	}
	blocks := make(map[string]block)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		// file.go:startLine.startCol,endLine.endCol numStmts count
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return 0, 0, fmt.Errorf("%s: malformed profile line %q", path, line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, 0, fmt.Errorf("%s: malformed statement count in %q", path, line)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return 0, 0, fmt.Errorf("%s: malformed execution count in %q", path, line)
		}
		b := blocks[fields[0]]
		b.stmts = stmts
		b.count += count
		blocks[fields[0]] = b
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	for _, b := range blocks {
		total += b.stmts
		if b.count > 0 {
			covered += b.stmts
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("%s: no coverage blocks", path)
	}
	return covered, total, nil
}

// readBaselinePercent reads the committed coverage floor: the first
// non-comment line of the baseline file is the percentage.
func readBaselinePercent(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strconv.ParseFloat(strings.Fields(line)[0], 64)
	}
	return 0, fmt.Errorf("%s: no baseline percentage found", path)
}

func gateCover(profilePath, basePath string, slack float64) int {
	covered, total, err := parseCoverProfile(profilePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	base, err := readBaselinePercent(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	pct := 100 * float64(covered) / float64(total)

	var c checker
	c.check(pct >= base-slack,
		"coverage: %.1f%% of statements (%d/%d) vs baseline %.1f%% (slack %.1f pts)",
		pct, covered, total, base, slack)
	if pct > base+slack {
		fmt.Printf("note coverage rose %.1f pts past the baseline: refresh %s to %.1f\n",
			pct-base, basePath, pct)
	}
	return c.fail
}

func main() {
	emu := flag.Bool("emu", false, "gate emulation-kernel cycles/s against a baseline (args: NEW BASELINE)")
	ratio := flag.Float64("ratio", 0.8, "fraction of the baseline each benchmark must retain (-emu, -sweep)")
	cover := flag.Bool("cover", false, "gate total statement coverage against a baseline (args: PROFILE BASELINE)")
	slack := flag.Float64("slack", 0.3, "percentage points coverage may drop below the baseline (-cover)")
	sweepMode := flag.Bool("sweep", false, "gate sweep throughput and scaling contracts against a baseline (args: NEW BASELINE)")
	promotePath := flag.String("promote", "", "atomically rename BASELINE.new over this baseline and exit")
	flag.Parse()

	if *promotePath != "" {
		os.Exit(promote(*promotePath))
	}
	if *sweepMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchgate -sweep [-ratio R] NEW_BENCH_sweep.json BASELINE_BENCH_sweep.json")
			os.Exit(2)
		}
		os.Exit(gateSweep(flag.Arg(0), flag.Arg(1), *ratio))
	}
	if *emu {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchgate -emu [-ratio R] NEW_BENCH_emu.json BASELINE_BENCH_emu.json")
			os.Exit(2)
		}
		os.Exit(gateEmu(flag.Arg(0), flag.Arg(1), *ratio))
	}
	if *cover {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchgate -cover [-slack P] coverage.out COVERAGE.baseline")
			os.Exit(2)
		}
		os.Exit(gateCover(flag.Arg(0), flag.Arg(1), *slack))
	}

	path := "BENCH_loop.json"
	if flag.NArg() > 0 {
		path = flag.Arg(0)
	}
	os.Exit(gateLoop(path))
}
