// Command bench is the emulator's end-to-end and per-layer benchmark. It
// runs the closed-loop workloads under workloads/ through their public
// entry points (core.Run, sweep.RunPoints, mparm.Kernel.Step), checks every
// repetition against the pinned golden digests under testdata/, and prints
// every metric by name with its unit and its median, quartiles and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.0008, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fig6 --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --seconds 60 --out r.json
//	bash bench/run.sh --compare a.json b.json
//	bash bench/run.sh --update
//
// --trace 1 runs the traced pass instead: each round runs the workload
// once through its entry point, then replays its loop from outside through
// the layers' public functions with tracing off and on, and reports the
// per-layer metrics. The spans of the last traced replay are written to
// --spans at exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// stat summarises one metric's samples.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	q1, med, q3 := quartiles(values)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Errors    []string              `json:"errors,omitempty"`
	Digests   map[string]unitDigest `json:"digests,omitempty"`
	Metrics   map[string]stat       `json:"metrics"`
}

// hostFacts records what the numbers were measured on.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
}

// result is what --out writes and --compare reads.
type result struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     int                        `json:"trace"`
	Host      hostFacts                  `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// state is one workload's measurements in progress.
type state struct {
	w      workload
	pn     *pinned
	res    *workloadResult
	reps   []*repResult
	rounds []round
}

func (st *state) fail(err error) {
	st.res.Failed++
	st.res.Errors = append(st.res.Errors, err.Error())
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "comma-separated workloads, or all")
		seed    = fs.Int64("seed", 1, "permutes the order repetitions, measurements and grid points run in; inputs are fixed")
		seconds = fs.Float64("seconds", 10, "how long to measure; every round started before then completes")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		out     = fs.String("out", "", "write the full result as JSON to this file")
		spans   = fs.String("spans", filepath.Join(".bench_build", "spans.json"), "with --trace 1, where to write the last traced replay's spans")
		dir     = fs.String("dir", "bench", "the benchmark's directory (workloads/, testdata/)")
		compare = fs.Bool("compare", false, "compare two result sets given as arguments A B, each a file or a comma-separated list or glob of files")
		update  = fs.Bool("update", false, "rewrite the pinned digests under testdata/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare wants two result sets")
			return 2
		}
		return runCompare(filepath.Join(*dir, "..", "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), *out, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	var ws []workload
	if *names == "all" {
		ws = allWorkloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := lookupWorkload(strings.TrimSpace(n))
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			ws = append(ws, w)
		}
	}
	if *update {
		return runUpdate(*dir, ws, stdout, stderr)
	}

	rng := rand.New(rand.NewSource(*seed))
	res := &result{Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]*workloadResult{},
		Host: hostFacts{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}}
	var states []*state
	for _, w := range ws {
		pn, err := readPinned(*dir, w.name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		st := &state{w: w, pn: pn, res: &workloadResult{}}
		res.Workloads[w.name] = st.res
		states = append(states, st)
	}

	// Rounds visit every workload in a seeded order until the time is up.
	// The first repetition pays the process's cold start; the median over
	// the rest absorbs it.
	minRounds := 3
	if *trace == 1 {
		minRounds = 1
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		for _, i := range rng.Perm(len(states)) {
			st := states[i]
			if *trace == 1 {
				st.traceRound(*dir, rng)
			} else if r := st.measureRep(*dir, rng); r != nil {
				st.reps = append(st.reps, r)
			}
		}
	}

	defs := e2eMetrics
	if *trace == 1 {
		defs = layerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, st := range states {
		values := e2eValues(st.reps)
		if *trace == 1 {
			values = map[string][]float64{}
			for _, rd := range st.rounds {
				for k, v := range layerValues(rd) {
					values[k] = append(values[k], v)
				}
			}
		}
		st.res.Metrics = map[string]stat{}
		for _, d := range defs {
			if len(values[d.name]) == 0 {
				continue
			}
			s := newStat(d.unit, values[d.name])
			st.res.Metrics[d.name] = s
			key := d.name
			if len(states) > 1 {
				key = st.w.name + "." + d.name
			}
			final.Metrics[key] = value{s.Median, d.unit}
		}
		final.Attempted += st.res.Attempted
		final.Failed += st.res.Failed
		if st.res.Failed > 0 || len(st.res.Metrics) != len(defs) {
			final.Correct = false
		}
		printTable(stdout, st, defs)
	}
	if *trace == 1 {
		if err := writeSpans(*spans, states); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			final.Correct = false
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			final.Correct = false
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// measureRep runs and checks one repetition; it returns nil on failure.
func (st *state) measureRep(dir string, rng *rand.Rand) *repResult {
	st.res.Attempted++
	r, err := st.w.rep(dir, rng)
	if err == nil {
		err = r.check(st.w, st.pn)
	}
	if err != nil {
		st.fail(fmt.Errorf("repetition: %w", err))
		return nil
	}
	st.res.Digests = r.digests
	return r
}

// traceRound runs one measured repetition and the replay with tracing off
// and on, in a seeded order. Both replays must end on the pinned digests.
func (st *state) traceRound(dir string, rng *rand.Rand) {
	rd := round{workload: st.w}
	for _, step := range rng.Perm(3) {
		switch step {
		case 0:
			if rd.rep = st.measureRep(dir, rng); rd.rep == nil {
				return
			}
		case 1, 2:
			var tr *tracer
			if step == 2 {
				tr = newTracer()
			}
			st.res.Attempted++
			out, err := st.w.replay(dir, tr)
			if err == nil {
				err = checkDigests(out.digests, st.pn)
			}
			if err != nil {
				st.fail(fmt.Errorf("replay: %w", err))
				return
			}
			if tr == nil {
				rd.plain = out
			} else {
				rd.traced, rd.spans = out, tr.spans
			}
		}
	}
	st.rounds = append(st.rounds, rd)
}

func printTable(w io.Writer, st *state, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed\n", st.w.name, st.res.Attempted, st.res.Failed)
	for _, e := range st.res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, d := range defs {
		if s, ok := st.res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-10s q1 %-12.6g q3 %-12.6g n %d\n", d.name, s.Median, d.unit, s.Q1, s.Q3, s.N)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes the last traced replay of every workload.
func writeSpans(path string, states []*state) error {
	doc := map[string][]span{}
	for _, st := range states {
		if n := len(st.rounds); n > 0 {
			doc[st.w.name] = st.rounds[n-1].spans
		}
	}
	return writeJSON(path, doc)
}

// runUpdate rewrites the pinned digests: one run through the entry point
// and one replay per workload, which must agree.
func runUpdate(dir string, ws []workload, stdout, stderr io.Writer) int {
	rng := rand.New(rand.NewSource(1))
	for _, w := range ws {
		pn, err := pinFromRun(dir, w, rng)
		if err == nil {
			err = writePinned(dir, w.name, pn.units, pn.cycles, pn.instr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s: %d digests, %d cycles, %d instructions\n", pinPath(dir, w.name), len(pn.units), pn.cycles, pn.instr)
	}
	return 0
}

// pinFromRun replays the workload untraced and checks one measured
// repetition against the replay's digests and work.
func pinFromRun(dir string, w workload, rng *rand.Rand) (*pinned, error) {
	pl, err := w.replay(dir, nil)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	pn := &pinned{units: pl.digests, cycles: pl.cycles, instr: pl.instr}
	r, err := w.rep(dir, rng)
	if err != nil {
		return nil, err
	}
	if err := r.check(w, pn); err != nil {
		return nil, fmt.Errorf("run and replay disagree: %w", err)
	}
	return pn, nil
}
