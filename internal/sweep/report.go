package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// WriteBench emits the outcome in the benchgate line format — one
// BenchmarkSweepPoint row per grid point plus a BenchmarkSweepGrid
// aggregate — so a sweep's throughput regression-gates exactly like the
// committed benchmark baselines (`benchgate -sweep NEW BASELINE`). Digest
// lines ride along as comments: the evidence and the numbers live in one
// artifact.
func (o *Outcome) WriteBench(w io.Writer) error {
	name := o.Name
	if name == "" {
		name = "grid"
	}
	for _, r := range o.Results {
		wall := r.WallS
		if wall <= 0 {
			wall = 1e-9
		}
		if _, err := fmt.Fprintf(w, "BenchmarkSweepPoint/%s 1 %.0f ns/op %.1f windows/s %.2f maxtemp-K\n",
			sanitizeBench(r.Name), wall*1e9, r.WindowsPerS, r.MaxTempK); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "BenchmarkSweepGrid/%s 1 %.0f ns/op %.1f windows/s %d workers %d maxprocs\n",
		sanitizeBench(name), o.WallS*1e9, o.AggregateWindowsPerS(), o.Workers, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}
	for _, r := range o.Results {
		if _, err := fmt.Fprintf(w, "# digest %s %s over %d records\n", r.Name, r.Digest, r.DigestRecords); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeBench keeps a grid point name valid inside a benchmark row (no
// whitespace; benchgate parses up to the first space).
func sanitizeBench(name string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, name)
}

// WriteTable prints the human-readable sweep report.
func (o *Outcome) WriteTable(w io.Writer) error {
	rows := append([]*Result(nil), o.Results...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Point < rows[j].Point })
	nameW := len("point")
	for _, r := range rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %8s  %10s  %9s  %4s  %-16s  %s\n",
		nameW, "point", "windows", "windows/s", "max K", "dfs", "digest", "lineage")
	for _, r := range rows {
		lineage := "cold"
		switch {
		case r.Forked:
			lineage = "warm+fork"
		case r.Warmed:
			lineage = "warm"
		}
		fmt.Fprintf(w, "%-*s  %8d  %10.1f  %9.2f  %4d  %-16s  %s\n",
			nameW, r.Name, r.RunSummary.Windows, r.WindowsPerS, r.MaxTempK, r.DFSEvents, r.Digest, lineage)
	}
	fmt.Fprintf(w, "\ngrid:    %d points, %d windows in %.2fs wall -> %.1f aggregate windows/s\n",
		len(rows), o.Windows(), o.WallS, o.AggregateWindowsPerS())
	if o.WarmupWindows > 0 {
		fmt.Fprintf(w, "warm-up: %d prefix group(s) x %d windows (%.2fs wall)\n",
			o.WarmupGroups, o.WarmupWindows, o.WarmupWallS)
	}
	if o.SessionFailures > 0 {
		fmt.Fprintf(w, "dispatch: %d session failure(s)\n", o.SessionFailures)
	}
	return nil
}
