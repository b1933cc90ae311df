package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/spec"
)

// The tracer times the public seams the checker calls into, from outside
// the program: decorators around model.Machine, spec.Invariant and
// spec.Reduction, plus an obs.Observer for pass and round spans. Nothing in
// the program changes.

// layer names the program layer a traced call belongs to.
type layer uint8

const (
	layerProtocols layer = iota // model.Machine: HandleMessage, HandleAction, Actions
	layerInvariant              // spec.Invariant.Check
	layerReduction              // spec.Reduction: Interest, Conflict, InterestKey
	numLayers
)

var layerNames = [numLayers]string{"protocols", "spec.invariant", "spec.reduction"}

// mergeGap is the largest gap between two calls of one layer on one lane
// that still extends the lane's last span instead of opening a new one. It
// bounds span memory on the sweep's tens of millions of calls; the gap
// time stays core's, because a span carries the busy time of its calls.
const mergeGap = 10 * time.Microsecond

// timeEvery is how often each layer's calls are timed: every handler and
// reduction call, and every 16th invariant call, whose tens of millions of
// calls on the sweep would otherwise spend more time reading the clock
// than checking. Every call is counted. Each must be a power of two.
var timeEvery = [numLayers]int64{1, 16, 1}

// span is a run of calls of one layer on one lane: [start, end) in tracer
// nanoseconds, busy the estimated duration of the calls in it (each timed
// call stands for timeEvery calls).
type span struct {
	start, end, busy int64
	layer            layer
}

// sampleCap bounds the handler outputs a lane keeps for the codec and
// netstate timings; past it the lane keeps every other sample and halves
// its sampling rate.
const sampleCap = 4096

// lane is a serial recording buffer. A call holds its lane for its whole
// duration, so the spans of one lane never overlap; lanes come from a
// sync.Pool and so roughly follow the scheduler's processors.
type lane struct {
	spans []span
	calls [numLayers]int64
	// messages counts the messages the handlers returned.
	messages int64

	// Sampled handler outputs: every stride-th successor state and emitted
	// batch.
	stride, tick int
	states       []model.State
	batches      [][]model.Message
}

func (l *lane) record(ly layer, start, end, clockCost int64) {
	busy := timeEvery[ly] * max(end-start-clockCost, 0)
	if n := len(l.spans); n > 0 {
		last := &l.spans[n-1]
		if last.layer == ly && start-last.end <= int64(mergeGap) {
			last.end = end
			last.busy += busy
			return
		}
	}
	l.spans = append(l.spans, span{start: start, end: end, busy: busy, layer: ly})
}

func (l *lane) sample(s model.State, out []model.Message) {
	l.messages += int64(len(out))
	if l.tick++; l.tick < l.stride {
		return
	}
	l.tick = 0
	if s != nil {
		l.states = append(l.states, s)
	}
	if len(out) > 0 {
		l.batches = append(l.batches, out)
	}
	if len(l.states) >= sampleCap || len(l.batches) >= sampleCap {
		l.states = halve(l.states)
		l.batches = halve(l.batches)
		l.stride *= 2
	}
}

func halve[T any](xs []T) []T {
	n := 0
	for i := 0; i < len(xs); i += 2 {
		xs[n] = xs[i]
		n++
	}
	clear(xs[n:])
	return xs[:n]
}

// tracer owns the lanes of one benchmark process.
type tracer struct {
	epoch time.Time
	pool  sync.Pool
	// clockCost is the median time between two back-to-back clock reads;
	// a timed call's duration is net of it.
	clockCost int64

	mu    sync.Mutex
	lanes []*lane // every lane ever made, so none is lost when the pool drops it
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.pool.New = func() any {
		l := &lane{stride: 1}
		t.mu.Lock()
		t.lanes = append(t.lanes, l)
		t.mu.Unlock()
		return l
	}
	reads := make([]int64, 1001)
	for i := range reads {
		a := t.now()
		reads[i] = t.now() - a
	}
	slices.Sort(reads)
	t.clockCost = reads[len(reads)/2]
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enter starts a call of layer ly: it takes a lane, counts the call, and
// reads the clock if the call is to be timed (start is -1 otherwise).
func (t *tracer) enter(ly layer) (l *lane, start int64) {
	l = t.pool.Get().(*lane)
	l.calls[ly]++
	if l.calls[ly]&(timeEvery[ly]-1) != 0 {
		return l, -1
	}
	return l, t.now()
}

// exit ends a call that enter started and gives the lane back.
func (t *tracer) exit(l *lane, ly layer, start int64) {
	t.stop(l, ly, start)
	t.pool.Put(l)
}

// stop ends a call's span but keeps the lane.
func (t *tracer) stop(l *lane, ly layer, start int64) {
	if start >= 0 {
		l.record(ly, start, t.now(), t.clockCost)
	}
}

// reset clears every lane before a check. No call may be in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		*l = lane{stride: 1, spans: l.spans[:0]}
	}
}

// collect returns the lanes' spans and totals after a check. No call may be
// in flight.
func (t *tracer) collect() (spans [][]span, calls [numLayers]int64, messages int64, states []model.State, batches [][]model.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		if len(l.spans) > 0 {
			spans = append(spans, l.spans)
		}
		for i := range calls {
			calls[i] += l.calls[i]
		}
		messages += l.messages
		states = append(states, l.states...)
		batches = append(batches, l.batches...)
	}
	return spans, calls, messages, states, batches
}

// tracedMachine decorates a machine. It forwards model.Symmetric, which
// the symmetry reduction looks for; without it a reduced check would run
// unreduced.
type tracedMachine struct {
	inner model.Machine
	t     *tracer
}

func newTracedMachine(m model.Machine, t *tracer) (*tracedMachine, error) {
	if _, ok := m.(model.RawReplayer); ok {
		return nil, errors.New("tracing a model.RawReplayer machine is not supported")
	}
	return &tracedMachine{inner: m, t: t}, nil
}

func (m *tracedMachine) Name() string                    { return m.inner.Name() }
func (m *tracedMachine) NumNodes() int                   { return m.inner.NumNodes() }
func (m *tracedMachine) Init(n model.NodeID) model.State { return m.inner.Init(n) }

func (m *tracedMachine) HandleMessage(n model.NodeID, s model.State, msg model.Message) (model.State, []model.Message) {
	l, t0 := m.t.enter(layerProtocols)
	next, out := m.inner.HandleMessage(n, s, msg)
	m.t.stop(l, layerProtocols, t0)
	l.sample(next, out)
	m.t.pool.Put(l)
	return next, out
}

func (m *tracedMachine) HandleAction(n model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	l, t0 := m.t.enter(layerProtocols)
	next, out := m.inner.HandleAction(n, s, a)
	m.t.stop(l, layerProtocols, t0)
	l.sample(next, out)
	m.t.pool.Put(l)
	return next, out
}

func (m *tracedMachine) Actions(n model.NodeID, s model.State) []model.Action {
	l, t0 := m.t.enter(layerProtocols)
	defer m.t.exit(l, layerProtocols, t0)
	return m.inner.Actions(n, s)
}

// SymmetryClasses forwards model.Symmetric; a machine without it declares
// no class, which the checker treats the same as not implementing it.
func (m *tracedMachine) SymmetryClasses() [][]model.NodeID {
	if s, ok := m.inner.(model.Symmetric); ok {
		return s.SymmetryClasses()
	}
	return nil
}

type tracedInvariant struct {
	inner spec.Invariant
	t     *tracer
}

func (v tracedInvariant) Name() string { return v.inner.Name() }

func (v tracedInvariant) Check(ss model.SystemState) *spec.Violation {
	l, t0 := v.t.enter(layerInvariant)
	defer v.t.exit(l, layerInvariant, t0)
	return v.inner.Check(ss)
}

type tracedReduction struct {
	inner spec.Reduction
	t     *tracer
}

func (r tracedReduction) Interest(n model.NodeID, s model.State) (spec.Interest, bool) {
	l, t0 := r.t.enter(layerReduction)
	defer r.t.exit(l, layerReduction, t0)
	return r.inner.Interest(n, s)
}

func (r tracedReduction) Conflict(a, b spec.Interest) bool {
	l, t0 := r.t.enter(layerReduction)
	defer r.t.exit(l, layerReduction, t0)
	return r.inner.Conflict(a, b)
}

// keyedReduction forwards spec.Keyer, which LMC-OPT uses to group interests
// by key; only a reduction that has it gets it.
type keyedReduction struct {
	tracedReduction
	k spec.Keyer
}

func (r keyedReduction) InterestKey(i spec.Interest) string {
	l, t0 := r.t.enter(layerReduction)
	defer r.t.exit(l, layerReduction, t0)
	return r.k.InterestKey(i)
}

func traceReduction(r spec.Reduction, t *tracer) spec.Reduction {
	if r == nil {
		return nil
	}
	tr := tracedReduction{inner: r, t: t}
	if k, ok := r.(spec.Keyer); ok {
		return keyedReduction{tracedReduction: tr, k: k}
	}
	return tr
}

// roundSpan is one exploration round, in tracer nanoseconds.
type roundSpan struct {
	Pass  int   `json:"pass"`
	Round int   `json:"round"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// roundRecorder is the observer half of the tracer: it turns the checker's
// barrier events into round spans. The checker calls it from its merge
// goroutine only.
type roundRecorder struct {
	t      *tracer
	base   int64 // the checker's run start, in tracer nanoseconds
	open   roundSpan
	rounds []roundSpan
}

func (r *roundRecorder) OnEvent(e obs.Event) {
	at := r.base + int64(e.Elapsed)
	switch e.Kind {
	case obs.KindRunStart:
		r.base = r.t.now() - int64(e.Elapsed)
	case obs.KindRoundStart:
		r.open = roundSpan{Pass: e.Pass, Round: e.Round, Start: at}
	case obs.KindRoundEnd:
		r.open.End = at
		r.rounds = append(r.rounds, r.open)
	}
}

// traced decorates a check's input. The observer disables heartbeats, which
// an untraced check does not pay for either.
func (t *tracer) traced(in input) (input, *roundRecorder, error) {
	m, err := newTracedMachine(in.m, t)
	if err != nil {
		return input{}, nil, err
	}
	rec := &roundRecorder{t: t}
	out := in
	out.m = m
	if in.opt.Invariant != nil {
		out.opt.Invariant = tracedInvariant{inner: in.opt.Invariant, t: t}
	}
	out.opt.Reduction = traceReduction(in.opt.Reduction, t)
	out.opt.Observer = rec
	out.opt.HeartbeatEvery = -1
	return out, rec, nil
}

// attribution is the wall time of one check split over the layers, in
// nanoseconds. Core is what no traced call covers: the checker's own code,
// its waits, and the time between the calls of a merged span.
type attribution struct {
	layers [numLayers]float64
	core   float64
}

func (a attribution) total() float64 {
	sum := a.core
	for _, v := range a.layers {
		sum += v
	}
	return sum
}

// attribute splits the wall time [from, to) instant by instant. An instant
// no lane spends inside a span goes to core. Otherwise it is split evenly
// among the lanes inside a span, and each lane's share goes to the span's
// layer at the span's busy density and to core for the rest. Each lane's
// spans must be sorted and disjoint, which a lane guarantees by being held
// for the length of a call; attribute checks it.
func attribute(lanes [][]span, from, to int64) (attribution, error) {
	for i, spans := range lanes {
		for j, s := range spans {
			if s.start < from || s.end > to || s.end < s.start {
				return attribution{}, fmt.Errorf("lane %d span %d [%d,%d) outside check [%d,%d)", i, j, s.start, s.end, from, to)
			}
			if j > 0 && s.start < spans[j-1].end {
				return attribution{}, fmt.Errorf("lane %d spans %d and %d overlap", i, j-1, j)
			}
		}
	}
	var a attribution
	idx := make([]int, len(lanes))
	active := make([]span, 0, len(lanes))
	for t := from; t < to; {
		next := to
		active = active[:0]
		for i, spans := range lanes {
			for idx[i] < len(spans) && spans[idx[i]].end <= t {
				idx[i]++
			}
			if idx[i] == len(spans) {
				continue
			}
			s := spans[idx[i]]
			if s.start <= t {
				active = append(active, s)
				next = min(next, s.end)
			} else {
				next = min(next, s.start)
			}
		}
		dt := float64(next - t)
		if len(active) == 0 {
			a.core += dt
		}
		for _, s := range active {
			share := dt / float64(len(active))
			density := min(1, float64(s.busy)/float64(s.end-s.start))
			a.layers[s.layer] += share * density
			a.core += share * (1 - density)
		}
		t = next
	}
	return a, nil
}
