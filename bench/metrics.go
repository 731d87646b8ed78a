package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (the tests check it).
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a user of the emulator sees; each is the median over
// the run's repetitions. Throughput gates as table3_speedup: the loop's
// speed over the MPARM kernel's, timed in the same repetition, so the
// host's drift cancels. The absolute rates are reported with the layers.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"table3_speedup", "x", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// layerMetrics come from the traced pass; each is the median over its
// rounds.
var layerMetrics = []metricDef{
	{"core.windows_per_s", "windows/s", "higher"},
	{"core.sim_mips", "Minstr/s", "higher"},
	{"emu.self_s", "s", "lower"},
	{"emu.core_mcycles_per_s", "Mcycles/s", "higher"},
	{"emu.skipped_frac", "ratio", "higher"},
	{"emu.core_steps", "count", "lower"},
	{"emu.snapshot_s", "s", "lower"},
	{"emu.build_s", "s", "lower"},
	{"power.self_s", "s", "lower"},
	{"thermal.self_s", "s", "lower"},
	{"thermal.us_per_solve", "us", "lower"},
	{"thermal.build_s", "s", "lower"},
	{"host.rtt_us_p50", "us", "lower"},
	{"host.rtt_us_p95", "us", "lower"},
	{"etherlink.frames", "count", "lower"},
	{"etherlink.bytes", "bytes", "lower"},
	{"etherlink.windows_per_frame", "ratio", "higher"},
	{"core.loop_self_s", "s", "lower"},
	{"core.overlap_ratio", "ratio", "higher"},
	{"core.thermal_lag_frac", "ratio", "lower"},
	{"core.allocs_per_window", "count", "lower"},
	{"core.window_ms_p50", "ms", "lower"},
	{"core.window_ms_p95", "ms", "lower"},
	{"golden.self_s", "s", "lower"},
	{"sweep.efficiency", "ratio", "higher"},
	{"sweep.warmup_frac", "ratio", "lower"},
	{"sweep.steals", "count", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"checkpoint.encode_s", "s", "lower"},
	{"checkpoint.decode_s", "s", "lower"},
	{"mparm.cycles_per_s", "cycles/s", "higher"},
	{"mparm.evaluations_per_cycle", "count", "lower"},
	{"scenario.compile_s", "s", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// e2eValues turns repetitions into per-metric samples. setup_s has
// setupsPerRep samples per repetition; the rest one each.
func e2eValues(reps []*repResult) map[string][]float64 {
	v := map[string][]float64{}
	for _, r := range reps {
		v["setup_s"] = append(v["setup_s"], r.setupS...)
		// Host seconds per simulated cycle, MPARM over the emulator.
		v["table3_speedup"] = append(v["table3_speedup"],
			(r.mparmS/mparmCycles)/(r.wallS/float64(r.cycles)))
		v["alloc_mb"] = append(v["alloc_mb"], float64(r.allocB)/1e6)
	}
	return v
}

// round is one traced-pass round: a measured repetition, the replay with
// tracing off and the same replay traced.
type round struct {
	rep      *repResult
	plain    *replayOut
	traced   *replayOut
	spans    []span
	workload workload
}

// spanTotals sums span durations (seconds) by name, sums each span's self
// time (its duration minus its direct children's) by name, and keeps the
// per-span durations of the per-window spans.
func spanTotals(spans []span) (total, self map[string]float64, each map[string][]float64) {
	total, self, each = map[string]float64{}, map[string]float64{}, map[string][]float64{}
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	for i, s := range spans {
		d := float64(s.EndNs-s.StartNs) / 1e9
		total[s.Name] += d
		self[s.Name] += d - child[i]
		if s.Name == "core.window" || s.Name == "host.exchange" {
			each[s.Name] = append(each[s.Name], d)
		}
	}
	return total, self, each
}

// layerValues derives the per-layer metrics of one round.
func layerValues(rd round) map[string]float64 {
	r, pl, tr := rd.rep, rd.plain, rd.traced
	total, self, each := spanTotals(rd.spans)
	v := map[string]float64{}
	v["core.windows_per_s"] = float64(r.windows) / r.wallS
	v["core.sim_mips"] = float64(r.instr) / r.wallS / 1e6
	v["emu.self_s"] = total["emu.step"]
	v["emu.core_mcycles_per_s"] = float64(tr.coreCycles) / total["emu.step"] / 1e6
	v["emu.skipped_frac"] = float64(tr.skipped) / float64(tr.coreCycles)
	v["emu.core_steps"] = float64(tr.coreSteps)
	v["emu.snapshot_s"] = total["emu.snapshot"]
	v["emu.build_s"] = total["emu.build"]
	v["power.self_s"] = total["power.eval"]
	// Over the link the solve runs in the host goroutine; its service time
	// (frame in to reply out) stands for the solve there.
	v["thermal.self_s"] = total["thermal.solve"] + tr.hostServiceS
	v["thermal.us_per_solve"] = v["thermal.self_s"] / float64(tr.windows) * 1e6
	v["thermal.build_s"] = total["thermal.build"]
	v["host.rtt_us_p50"] = percentile(each["host.exchange"], 50) * 1e6
	v["host.rtt_us_p95"] = percentile(each["host.exchange"], 95) * 1e6
	v["etherlink.frames"] = float64(r.frames)
	v["etherlink.bytes"] = float64(r.bytes)
	v["etherlink.windows_per_frame"] = 0
	if r.framesSent > 0 {
		v["etherlink.windows_per_frame"] = float64(r.windows) / float64(r.framesSent)
	}
	v["core.loop_self_s"] = self["core.loop"] + self["core.window"]
	v["core.overlap_ratio"] = pl.wallS / r.wallS
	v["core.thermal_lag_frac"] = r.lagS / r.wallS
	v["core.allocs_per_window"] = float64(r.allocN) / float64(r.windows)
	v["core.window_ms_p50"] = percentile(each["core.window"], 50) * 1e3
	v["core.window_ms_p95"] = percentile(each["core.window"], 95) * 1e3
	v["golden.self_s"] = total["golden.digest"] + total["golden.final"]
	v["sweep.efficiency"], v["sweep.warmup_frac"], v["sweep.steals"] = 0, 0, 0
	if rd.workload.grid {
		v["sweep.efficiency"] = (pl.warmupS + pl.pointsS) / (r.wallS * gridWorkers)
		v["sweep.warmup_frac"] = r.warmupWallS / r.wallS
		v["sweep.steals"] = float64(r.steals)
	}
	v["checkpoint.bytes"] = float64(tr.ckptBytes)
	v["checkpoint.encode_s"] = total["checkpoint.encode"]
	v["checkpoint.decode_s"] = total["checkpoint.decode"]
	v["mparm.cycles_per_s"] = mparmCycles / r.mparmS
	v["mparm.evaluations_per_cycle"] = float64(r.mparmEv) / mparmCycles
	v["scenario.compile_s"] = total["scenario.compile"]
	v["bench.trace_overhead_pct"] = (tr.wallS - pl.wallS) / pl.wallS * 100
	return v
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) and statistics.median compute them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}

// percentile is the nearest-rank percentile of the values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	k := int(math.Ceil(p / 100 * float64(len(d))))
	if k < 1 {
		k = 1
	}
	return d[k-1]
}
