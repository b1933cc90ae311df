// Command lmcbench is the repository's benchmark. Each workload is a
// deterministic Paxos check that runs for seconds (on sweep-paxos4, one
// check per proposing node); the benchmark repeats it for a fixed time,
// checks every verdict against pinned counts, and prints the end-to-end
// metrics, with check times scaled to a reference host speed (or, with
// --trace 1, the per-layer metrics of a traced run) followed by one JSON
// line.
//
//	bash lmcbench/run.sh --workload explore-paxos6 --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lmc/internal/core"
)

// setupReps is how many times a run sets up its check; setup_s is the
// median.
const setupReps = 7

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"check_ref_s", "s"},
	{"cpu_ref_s", "CPU-s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"pass_ratio", "fraction"},
}

var perLayer = []metricDef{
	{"protocols.handle_calls", "count"},
	{"protocols.handle_s", "s"},
	{"codec.hash_ns", "ns"},
	{"codec.state_bytes", "bytes"},
	{"netstate.add_ns", "ns"},
	{"netstate.messages", "count"},
	{"netstate.dup_ratio", "fraction"},
	{"spec.invariant_calls", "count"},
	{"spec.invariant_s", "s"},
	{"spec.reduction_calls", "count"},
	{"spec.reduction_s", "s"},
	{"core.rounds", "count"},
	{"core.round_s_max", "s"},
	{"core.node_states", "count"},
	{"core.transitions", "count"},
	{"core.discovery_ratio", "fraction"},
	{"core.system_states", "count"},
	{"core.soundness_calls", "count"},
	{"core.sequences_checked", "count"},
	{"core.witness_skips", "count"},
	{"core.cover_index_hit_ratio", "fraction"},
	{"core.confirm_ratio", "fraction"},
	{"core.self_s", "s"},
	{"core.system_state_timer_s", "s"},
	{"core.soundness_timer_s", "s"},
	{"runtime.gc_cpu_s", "CPU-s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.parallelism", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// closureTolerance is how far the traced run's self times may sum from
// the traced check_s, as a share of it, before the run fails.
const closureTolerance = 0.001

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(time.Now(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(procStart time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lmcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 40, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		if err == nil {
			err = errors.New("--trace must be 0 or 1 and --seconds positive")
		}
		fmt.Fprintln(stderr, "lmcbench:", err)
		return 2
	}

	ins, want, setups, err := setUp(w, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "lmcbench: %s set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "lmcbench %s  seed %d (%s)  GOMAXPROCS %d  NumCPU %d  %s\n",
		w.name, *seed, describe(ins), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "set-up: %d times, median %.4f s; process start to first check %.3f s\n",
		len(setups), summarize(setups).median, time.Since(procStart).Seconds())

	var rep report
	if *traceFlag == 1 {
		rep = traced(w, *seed, ins, want, *seconds, *spansDir, stdout, stderr)
	} else {
		rep = untraced(ins, want, setups, *seconds, stdout, stderr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "lmcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setUp builds the check inputs setupReps times, each time with a warm-up
// check of the workload's shrunk twin, and times each set-up.
func setUp(w workload, seed int64) ([]input, expect, []float64, error) {
	var (
		ins   []input
		want  expect
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		ins, want, err = w.full(seed)
		if err != nil {
			return nil, expect{}, nil, err
		}
		warm, warmWant, err := w.shrunk(seed)
		if err != nil {
			return nil, expect{}, nil, err
		}
		res, err := core.CheckContext(context.Background(), warm.m, warm.start, warm.opt)
		if err != nil {
			return nil, expect{}, nil, err
		}
		if err := verify(res, warmWant, warm.m, warm); err != nil {
			return nil, expect{}, nil, fmt.Errorf("warm-up check: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ins, want, times, nil
}

// untraced repeats cycles of one check per input for the given time,
// starting a new cycle only while the last one would still fit, and
// reports the end-to-end metrics. A cycle's sample is the mean of its
// checks. Each check follows a calibration, and a time at the reference
// speed is the median check time over the median calibration time, scaled
// by refCalibrationS.
func untraced(ins []input, want expect, setups []float64, seconds float64, stdout, stderr io.Writer) report {
	var walls, cpus, cals []float64
	checks, failed := 0, 0
	start := time.Now()
cycles:
	for {
		var wall, cpu, cal float64
		for _, in := range ins {
			checks++
			cal += calibrate()
			cr, err := runCheck(in)
			if err != nil {
				fmt.Fprintln(stderr, "lmcbench:", err)
				failed++
				break cycles
			}
			if err := verify(cr.res, want, in.m, in); err != nil {
				fmt.Fprintf(stderr, "lmcbench: check %d (%s): wrong verdict: %v\n", checks, in.desc, err)
				failed++
			}
			wall += cr.wall
			cpu += cr.cpu
		}
		n := float64(len(ins))
		walls = append(walls, wall/n)
		cpus = append(cpus, cpu/n)
		cals = append(cals, cal/n)
		if time.Since(start).Seconds()+wall+cal > seconds {
			break
		}
	}
	attempted := checks
	speed := 0.0
	if m := summarize(cals).median; m > 0 {
		speed = refCalibrationS / m
	}
	values := map[string]float64{
		"check_ref_s": summarize(walls).median * speed,
		"cpu_ref_s":   summarize(cpus).median * speed,
		"peak_rss_mb": peakRSSMB(),
		"setup_s":     summarize(setups).median,
		"pass_ratio":  float64(attempted-failed) / float64(attempted),
	}
	fmt.Fprintf(stdout, "%d checks, %d a sample\n", checks, len(ins))
	fmt.Fprintf(stdout, "%-12s %-9s %12s %12s %12s %8s %4s\n", "metric", "unit", "median", "q1", "q3", "spread", "n")
	for _, row := range []struct {
		def metricDef
		xs  []float64
	}{
		{metricDef{"check_s", "s"}, walls},
		{metricDef{"cpu_s", "CPU-s"}, cpus},
		{metricDef{"calib_s", "s"}, cals},
		{endToEnd[3], setups},
	} {
		s := summarize(row.xs)
		fmt.Fprintf(stdout, "%-12s %-9s %12.4f %12.4f %12.4f %8.4f %4d\n", row.def.name, row.def.unit, s.median, s.q1, s.q3, s.spread(), s.n)
	}
	for _, d := range endToEnd[:2] {
		fmt.Fprintf(stdout, "%-12s %-9s %12.4f  (median x %.4f, the reference speed over this run's)\n", d.name, d.unit, values[d.name], speed)
	}
	fmt.Fprintf(stdout, "%-12s %-9s %12.1f  (process peak)\n", "peak_rss_mb", "MB", values["peak_rss_mb"])
	fmt.Fprintf(stdout, "%-12s %-9s %12.4f  (fail_ratio %.4f: %d of %d checks)\n", "pass_ratio", "fraction",
		values["pass_ratio"], 1-values["pass_ratio"], failed, attempted)
	return report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metricsOf(endToEnd, values),
	}
}

func metricsOf(defs []metricDef, values map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// checkSpans is what the traced run writes out per traced check: the check
// span, its rounds and its layer self times.
type checkSpans struct {
	ID      int                `json:"id"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	SelfNS  map[string]float64 `json:"self_ns"`
	Lanes   int                `json:"lanes"`
	Merged  int                `json:"merged_call_spans"`
	Rounds  []roundSpan        `json:"rounds"`
}

// traced runs cycles of one pair of an untraced and a traced check per
// input for the given time (at least one cycle) and reports the per-layer
// metrics. Besides each verdict it checks that the traced result equals
// the untraced one and that the self times sum to the traced check's wall
// time.
func traced(w workload, seed int64, ins []input, want expect, seconds float64, spansDir string, stdout, stderr io.Writer) report {
	tr := newTracer()
	tins := make([]input, len(ins))
	recs := make([]*roundRecorder, len(ins))
	for i, in := range ins {
		var err error
		if tins[i], recs[i], err = tr.traced(in); err != nil {
			fmt.Fprintln(stderr, "lmcbench:", err)
			return report{Attempted: 1, Failed: 1, Metrics: metricsOf(perLayer, nil)}
		}
	}
	values := map[string][]float64{}
	add := func(name string, v float64) { values[name] = append(values[name], v) }
	var tracedWalls []float64
	var written []checkSpans
	attempted, failed := 0, 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "lmcbench: pair %d: "+format+"\n", append([]any{len(tracedWalls) + 1}, args...)...)
		failed++
	}
	start := time.Now()
	cycle := 0.0
	for k := 0; ; k++ {
		in, tin, rec := ins[k%len(ins)], tins[k%len(ins)], recs[k%len(ins)]
		attempted += 2
		plain, err := runCheck(in)
		if err != nil {
			fail("%v", err)
			break
		}
		if err := verify(plain.res, want, in.m, in); err != nil {
			fail("untraced check: wrong verdict: %v", err)
		}
		tr.reset()
		rec.rounds = rec.rounds[:0]
		tc, err := runCheck(tin)
		if err != nil {
			fail("%v", err)
			break
		}
		if err := verify(tc.res, want, in.m, in); err != nil {
			fail("traced check: wrong verdict: %v", err)
		} else if err := sameResult(plain.res, tc.res); err != nil {
			fail("tracing changed the result: %v", err)
		}
		lanes, calls, messages, states, batches := tr.collect()
		from, to := int64(tc.t0.Sub(tr.epoch)), int64(tc.t1.Sub(tr.epoch))
		attr, err := attribute(lanes, from, to)
		if err != nil {
			fail("attribution: %v", err)
		} else if math.Abs(attr.total()-float64(to-from)) > closureTolerance*float64(to-from) {
			fail("self times sum to %.0f ns, traced check took %d ns", attr.total(), to-from)
		}

		s := tc.res.Stats
		add("protocols.handle_calls", float64(calls[layerProtocols]))
		add("protocols.handle_s", attr.layers[layerProtocols]/1e9)
		hashNS, stateBytes := timeCodec(states)
		add("codec.hash_ns", hashNS)
		add("codec.state_bytes", stateBytes)
		add("netstate.add_ns", timeNetstate(batches))
		add("netstate.messages", float64(messages))
		add("netstate.dup_ratio", ratio(s.DuplicatesDropped, int(messages)))
		add("spec.invariant_calls", float64(calls[layerInvariant]))
		add("spec.invariant_s", attr.layers[layerInvariant]/1e9)
		add("spec.reduction_calls", float64(calls[layerReduction]))
		add("spec.reduction_s", attr.layers[layerReduction]/1e9)
		roundMax := 0.0
		for _, r := range rec.rounds {
			roundMax = max(roundMax, float64(r.End-r.Start)/1e9)
		}
		add("core.rounds", float64(len(rec.rounds)))
		add("core.round_s_max", roundMax)
		add("core.node_states", float64(s.NodeStates))
		add("core.transitions", float64(s.Transitions))
		add("core.discovery_ratio", ratio(s.NodeStates, s.Transitions))
		add("core.system_states", float64(s.SystemStates))
		add("core.soundness_calls", float64(s.SoundnessCalls))
		add("core.sequences_checked", float64(s.SequencesChecked))
		add("core.witness_skips", float64(s.WitnessSkips))
		add("core.cover_index_hit_ratio", ratio(s.CoverIndexHits, s.CoverIndexHits+s.CoverIndexMisses))
		add("core.confirm_ratio", ratio(s.ConfirmedBugs, s.SoundnessCalls))
		add("core.self_s", attr.core/1e9)
		add("core.system_state_timer_s", s.SystemStateTime.Seconds())
		add("core.soundness_timer_s", s.SoundnessTime.Seconds())
		add("runtime.gc_cpu_s", plain.runtime.gcCPU)
		add("runtime.alloc_mb", float64(plain.runtime.allocBytes)/(1<<20))
		add("runtime.gc_cycles", float64(plain.runtime.gcCycles))
		add("runtime.parallelism", plain.cpu/plain.wall)
		add("trace.overhead_ratio", tc.wall/plain.wall-1)
		add("untraced check_s", plain.wall)
		tracedWalls = append(tracedWalls, tc.wall)

		selfNS := map[string]float64{"core": attr.core}
		merged := 0
		for i, v := range attr.layers {
			selfNS[layerNames[i]] = v
		}
		for _, l := range lanes {
			merged += len(l)
		}
		written = append(written, checkSpans{ID: len(written) + 1, StartNS: from, EndNS: to, SelfNS: selfNS,
			Lanes: len(lanes), Merged: merged, Rounds: append([]roundSpan(nil), rec.rounds...)})

		cycle += plain.wall + tc.wall
		if k%len(ins) == len(ins)-1 {
			if time.Since(start).Seconds()+cycle > seconds {
				break
			}
			cycle = 0
		}
	}

	medians := map[string]float64{}
	for name, xs := range values {
		medians[name] = summarize(xs).median
	}
	printLayers(stdout, medians, summarize(tracedWalls), len(tracedWalls))
	if spansDir != "" {
		if err := writeSpans(spansDir, w.name, seed, written); err != nil {
			fmt.Fprintln(stderr, "lmcbench:", err)
		}
	}
	return report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metricsOf(perLayer, medians),
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// printLayers prints the per-layer table: the self-time split of the traced
// check_s first, then every per-layer metric.
func printLayers(out io.Writer, m map[string]float64, walls summary, pairs int) {
	total := walls.median
	fmt.Fprintf(out, "traced check_s %.4f s (median of %d), untraced %.4f s, tracing overhead %.1f%%\n",
		total, pairs, m["untraced check_s"], 100*m["trace.overhead_ratio"])
	fmt.Fprintf(out, "%-28s %12s %8s\n", "self time", "s", "share")
	sum := 0.0
	for _, name := range []string{"protocols.handle_s", "spec.invariant_s", "spec.reduction_s", "core.self_s"} {
		sum += m[name]
		fmt.Fprintf(out, "%-28s %12.4f %7.1f%%\n", name, m[name], 100*m[name]/total)
	}
	fmt.Fprintf(out, "%-28s %12.4f %7.1f%%  (medians; each check closes within %.1f%%)\n", "sum", sum, 100*sum/total, 100*closureTolerance)
	names := make([]string, 0, len(perLayer))
	units := map[string]string{}
	for _, d := range perLayer {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-28s %-9s %16s\n", "per-layer metric", "unit", "median")
	for _, name := range names {
		if v := m[name]; v == math.Trunc(v) && math.Abs(v) < 1e15 {
			fmt.Fprintf(out, "%-28s %-9s %16d\n", name, units[name], int64(v))
		} else {
			fmt.Fprintf(out, "%-28s %-9s %16.6g\n", name, units[name], v)
		}
	}
}

func writeSpans(dir, workload string, seed int64, checks []checkSpans) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"workload": workload, "seed": seed, "checks": checks}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), data, 0o644)
}
