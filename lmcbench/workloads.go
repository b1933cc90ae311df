package main

import (
	"fmt"
	"math/rand"
	"strings"

	"lmc/internal/bench"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/protocols/paxos"
	"lmc/internal/stats"
	"lmc/internal/trace"
)

// input is everything one check needs: the machine, the start system state
// and the checker options. The benchmark hands the checker only these.
type input struct {
	m     model.Machine
	start model.SystemState
	opt   core.Options
	// desc names the seed-chosen parameters, for the report.
	desc string
}

// expect pins the verdict of one check. A zero count is not checked.
type expect struct {
	complete     bool
	nodeStates   int
	transitions  int
	systemStates int
	// bug requires exactly one confirmed bug, a first-bug stop, and a
	// schedule that replays through the undecorated machine to an Agreement
	// violation. Without it the check must finish with no bug.
	bug bool
}

// workload is one benchmark workload: the inputs of a full-size space and
// a shrunk twin of it. A run cycles through the inputs, and each cycle is
// one sample. The twin is the set-up warm-up and the seed tests' subject.
type workload struct {
	name string
	why  string
	full func(seed int64) ([]input, expect, error)
	// shrunk builds the warm-up space.
	shrunk func(seed int64) (input, expect, error)
}

// space is a Paxos space with one proposer (paxos.OnceAt) checked from the
// initial state. The seed picks the proposing node and the proposed value;
// relabelling the proposer leaves every count unchanged.
type space struct {
	nodes int
	// opt selects LMC-OPT (the Agreement reduction); otherwise LMC-GEN.
	opt    bool
	reduce core.Reductions
	// depth bounds each node's path length (Options.MaxPathDepth); 0 is
	// unbounded.
	depth int
	want  expect
}

func (sp space) build(seed int64) (input, expect, error) {
	rng := rand.New(rand.NewSource(seed))
	proposer := model.NodeID(rng.Intn(sp.nodes))
	return sp.input(proposer, 1+rng.Intn(1_000_000)), sp.want, nil
}

// everyProposer builds the space once for each node as the proposer,
// starting at the seed's proposer, each with a value of its own from the
// seed. Which node proposes changes the sweep's cost, though not its
// counts, so a run that cycles through these inputs costs the same for
// every seed.
func (sp space) everyProposer(seed int64) ([]input, expect, error) {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(sp.nodes)
	ins := make([]input, sp.nodes)
	for i := range ins {
		ins[i] = sp.input(model.NodeID((first+i)%sp.nodes), 1+rng.Intn(1_000_000))
	}
	return ins, sp.want, nil
}

// one is build for a workload whose run repeats a single input.
func (sp space) one(seed int64) ([]input, expect, error) {
	in, want, err := sp.build(seed)
	return []input{in}, want, err
}

func (sp space) input(proposer model.NodeID, value int) input {
	m := paxos.New(sp.nodes, paxos.NoBug, paxos.OnceAt{Node: proposer, Index: 0, Value: value})
	opt := core.Options{Invariant: paxos.Agreement(), Reduce: sp.reduce, MaxPathDepth: sp.depth}
	if sp.opt {
		opt.Reduction = paxos.Reduction{}
	}
	return input{
		m:     m,
		start: model.InitialSystem(m),
		opt:   opt,
		desc:  fmt.Sprintf("proposer %v, value %d", proposer, value),
	}
}

// The shrunk spaces. Their counts are pinned like the full ones.
var (
	paxos4OPT = space{nodes: 4, opt: true,
		want: expect{complete: true, nodeStates: 3312, transitions: 29089}}
	paxos3GEN = space{nodes: 3,
		want: expect{complete: true, nodeStates: 528, transitions: 3657, systemStates: 276480}}
)

// liveBugInputs is liveBug for the workload's run.
func liveBugInputs(seed int64) ([]input, expect, error) {
	in, want, err := liveBug(seed)
	return []input{in}, want, err
}

// liveBug is the registered paxos-bug workload: the §5.5 last-response bug,
// checked by LMC-OPT from the paper's live state until the first confirmed
// bug. The seed does not alter it.
func liveBug(int64) (input, expect, error) {
	w, err := bench.Lookup("paxos-bug")
	if err != nil {
		return input{}, expect{}, err
	}
	start, err := w.StartState()
	if err != nil {
		return input{}, expect{}, err
	}
	return input{
		m:     w.Machine,
		start: start,
		opt: core.Options{
			Invariant:      w.Invariant,
			Reduction:      w.Reduction,
			StopAtFirstBug: true,
		},
		desc: "paper live state",
	}, expect{bug: true}, nil
}

var workloads = []workload{
	{
		name: "explore-paxos6",
		why:  "6-node Paxos by LMC-OPT to fixpoint: no system state is built, so nearly all time is exploration (handlers, codec, I+, merge barrier)",
		full: space{nodes: 6, opt: true,
			want: expect{complete: true, nodeStates: 91968, transitions: 1188801}}.one,
		shrunk: paxos4OPT.build,
	},
	{
		name: "sweep-paxos4",
		why:  "4-node Paxos by LMC-GEN unreduced, node paths up to 4 events, each node as proposer in turn: 44M system states a check, nearly all in combination plus invariant",
		full: space{nodes: 4, depth: 4,
			want: expect{complete: true, nodeStates: 589, transitions: 2085, systemStates: 43898536}}.everyProposer,
		shrunk: paxos3GEN.build,
	},
	{
		name:   "find-paxos-live",
		why:    "the paper's bug hunt: Paxos last-response bug from the live state, LMC-OPT to the first bug, dominated by the witness search and GC",
		full:   liveBugInputs,
		shrunk: paxos4OPT.build,
	},
}

// describe names the inputs of a run, for the report.
func describe(ins []input) string {
	descs := make([]string, len(ins))
	for i, in := range ins {
		descs[i] = in.desc
	}
	return strings.Join(descs, "; ")
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// verify compares a result with its pinned expectation. The bug schedule is
// replayed through plain, an undecorated machine, so a traced check is
// judged by the real handlers.
func verify(res *core.Result, want expect, plain model.Machine, in input) error {
	s := res.Stats
	if want.bug {
		if len(res.Bugs) != 1 || s.ConfirmedBugs != 1 {
			return fmt.Errorf("want exactly 1 confirmed bug, got %d (counter %d)", len(res.Bugs), s.ConfirmedBugs)
		}
		if res.StopReason != obs.StopFirstBug {
			return fmt.Errorf("want stop reason %v, got %v", obs.StopFirstBug, res.StopReason)
		}
		rr := trace.ReplayWith(plain, in.start, in.opt.InitialMessages, res.Bugs[0].Schedule)
		if rr.Err != nil {
			return fmt.Errorf("bug schedule does not replay: %v", rr.Err)
		}
		if paxos.Agreement().Check(rr.Final) == nil {
			return fmt.Errorf("bug schedule replays to a state that satisfies Agreement")
		}
	} else {
		if len(res.Bugs) != 0 || s.ConfirmedBugs != 0 {
			return fmt.Errorf("want no bug, got %d", len(res.Bugs))
		}
		if want.complete && (!res.Complete || res.StopReason != obs.StopFixpoint) {
			return fmt.Errorf("want a complete run, stopped by %v", res.StopReason)
		}
	}
	for _, c := range []struct {
		name      string
		want, got int
	}{
		{"node states", want.nodeStates, s.NodeStates},
		{"transitions", want.transitions, s.Transitions},
		{"system states", want.systemStates, s.SystemStates},
	} {
		if c.want != 0 && c.got != c.want {
			return fmt.Errorf("want %d %s, got %d", c.want, c.name, c.got)
		}
	}
	return nil
}

// sameResult reports how two results of one check differ, ignoring only
// the wall-clock fields.
func sameResult(a, b *core.Result) error {
	sa, sb := a.Stats, b.Stats
	for _, s := range []*stats.Counters{&sa, &sb} {
		s.Elapsed, s.SoundnessTime, s.SystemStateTime, s.ShardWaitTime = 0, 0, 0, 0
	}
	if sa != sb {
		return fmt.Errorf("counters differ:\n%s\nvs\n%s", sa.String(), sb.String())
	}
	if a.Complete != b.Complete || a.Suppressed != b.Suppressed ||
		a.StopReason != b.StopReason || a.FinalLocalBound != b.FinalLocalBound {
		return fmt.Errorf("outcome differs: complete %v/%v, suppressed %v/%v, stop %v/%v, bound %d/%d",
			a.Complete, b.Complete, a.Suppressed, b.Suppressed, a.StopReason, b.StopReason, a.FinalLocalBound, b.FinalLocalBound)
	}
	if len(a.Bugs) != len(b.Bugs) {
		return fmt.Errorf("%d bugs vs %d", len(a.Bugs), len(b.Bugs))
	}
	for i := range a.Bugs {
		ba, bb := a.Bugs[i], b.Bugs[i]
		if ba.Schedule.String() != bb.Schedule.String() || ba.Depth != bb.Depth ||
			ba.Violation.Detail != bb.Violation.Detail || ba.System.Fingerprint() != bb.System.Fingerprint() {
			return fmt.Errorf("bug %d differs:\n%s\nvs\n%s", i+1, ba.Schedule, bb.Schedule)
		}
	}
	return nil
}
