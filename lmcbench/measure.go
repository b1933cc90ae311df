package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/netstate"
)

// cpuSeconds is the process's user plus system CPU so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeStats reads the Go runtime's GC and allocation totals.
type runtimeStats struct {
	gcCPU      float64 // seconds
	allocBytes uint64
	gcCycles   uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      s[0].Value.Float64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// The calibration kernel mixes a 64 KiB buffer, which stays in the core's
// own caches, calibrationRounds times.
const (
	calibrationWords  = 8192
	calibrationRounds = 3000
)

// refCalibrationS is the kernel's median time on the reference host (see
// README.md). A time at the reference speed is a measured time scaled by
// refCalibrationS over the kernel's time next to it.
const refCalibrationS = 0.06

var (
	calibrationBuf  = make([]uint64, calibrationWords)
	calibrationSink uint64
)

func init() {
	for i := range calibrationBuf {
		calibrationBuf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
}

// calibrate times the calibration kernel: fixed integer work on one
// goroutine that calls nothing in the program. Its time follows only how
// fast the host runs code at the moment, which on a shared host changes
// from minute to minute with the load that other tenants put on the
// cores.
func calibrate() float64 {
	t0 := time.Now()
	h := uint64(14695981039346656037)
	for r := 0; r < calibrationRounds; r++ {
		for _, v := range calibrationBuf {
			h ^= v
			h *= 1099511628211
			h ^= h >> 29
		}
	}
	calibrationSink += h
	return time.Since(t0).Seconds()
}

// checkRun is one timed check.
type checkRun struct {
	res     *core.Result
	t0, t1  time.Time
	wall    float64 // seconds
	cpu     float64 // seconds
	runtime runtimeStats
}

// runCheck runs one check from a collected heap, so that no check pays for
// its predecessor's garbage.
func runCheck(in input) (checkRun, error) {
	runtime.GC()
	rt0, cpu0 := readRuntime(), cpuSeconds()
	t0 := time.Now()
	res, err := core.CheckContext(context.Background(), in.m, in.start, in.opt)
	t1 := time.Now()
	cpu1, rt1 := cpuSeconds(), readRuntime()
	if err != nil {
		return checkRun{}, err
	}
	return checkRun{
		res:  res,
		t0:   t0,
		t1:   t1,
		wall: t1.Sub(t0).Seconds(),
		cpu:  cpu1 - cpu0,
		runtime: runtimeStats{
			gcCPU:      rt1.gcCPU - rt0.gcCPU,
			allocBytes: rt1.allocBytes - rt0.allocBytes,
			gcCycles:   rt1.gcCycles - rt0.gcCycles,
		},
	}, nil
}

// minTiming is how long each offline codec and netstate timing repeats its
// sample.
const minTiming = 20 * time.Millisecond

var hashSink codec.Fingerprint

// timeCodec times codec.HashOf on sampled states, per state, and measures
// their mean encoded size.
func timeCodec(states []model.State) (nsPerState, bytesPerState float64) {
	if len(states) == 0 {
		return 0, 0
	}
	w := codec.GetWriter()
	total := 0
	for _, s := range states {
		w.Reset()
		s.Encode(w)
		total += w.Len()
	}
	codec.PutWriter(w)
	reps := 0
	start := time.Now()
	for reps == 0 || time.Since(start) < minTiming {
		for _, s := range states {
			hashSink ^= codec.HashOf(s)
		}
		reps++
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(reps*len(states)), float64(total) / float64(len(states))
}

// timeNetstate times netstate.SharedNet.AddAll on sampled emitted batches,
// per message, into a fresh I+ for every repetition.
func timeNetstate(batches [][]model.Message) float64 {
	msgs := 0
	for _, b := range batches {
		msgs += len(b)
	}
	if msgs == 0 {
		return 0
	}
	var elapsed time.Duration
	for reps := 1; ; reps++ {
		net := netstate.NewSharedNet(0)
		start := time.Now()
		for _, b := range batches {
			net.AddAll(b)
		}
		elapsed += time.Since(start)
		if elapsed >= minTiming {
			return float64(elapsed.Nanoseconds()) / float64(reps*msgs)
		}
	}
}

// summary is the median and quartiles of a sample, the quartiles computed
// like Python's statistics.quantiles(xs, n=4).
type summary struct {
	n              int
	median, q1, q3 float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	sm := summary{n: n, median: (s[(n-1)/2] + s[n/2]) / 2, q1: s[0], q3: s[0]}
	if n >= 2 {
		sm.q1, sm.q3 = exclusiveQuartile(s, 1), exclusiveQuartile(s, 3)
	}
	return sm
}

// exclusiveQuartile is statistics.quantiles' default "exclusive" method.
func exclusiveQuartile(sorted []float64, k int) float64 {
	n := len(sorted)
	m := n + 1
	j := min(max(k*m/4, 1), n-1)
	delta := k*m - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}
