package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/spec"
)

var (
	symPOR       = core.Reductions{Symmetry: true, PartialOrder: true}
	paxos3GENSym = space{nodes: 3, reduce: symPOR,
		want: expect{complete: true, nodeStates: 528, transitions: 3657}}
)

// shrunkSpaces are small versions of the benchmark's spaces: 3- and 4-node
// Paxos, GEN and OPT, reduced and unreduced.
var shrunkSpaces = map[string]space{
	"paxos3-gen":     paxos3GEN,
	"paxos3-gen-sym": paxos3GENSym,
	"paxos3-opt": {nodes: 3, opt: true,
		want: expect{complete: true, nodeStates: 528, transitions: 3657}},
	"paxos4-opt":     paxos4OPT,
	"paxos4-opt-sym": {nodes: 4, opt: true, reduce: symPOR, want: paxos4OPT.want},
}

func check(t *testing.T, in input) *core.Result {
	t.Helper()
	cr, err := runCheck(in)
	if err != nil {
		t.Fatal(err)
	}
	return cr.res
}

// counts is what a seed must not change.
func counts(r *core.Result) [4]int {
	return [4]int{r.Stats.NodeStates, r.Stats.Transitions, r.Stats.SystemStates, r.Stats.SymmetrySkips}
}

func TestSeedsChangeInputsNotCounts(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	for name, sp := range shrunkSpaces {
		t.Run(name, func(t *testing.T) {
			descs := map[string]int64{}
			var first [4]int
			for i, seed := range seeds {
				in, want, err := sp.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				again, _, _ := sp.build(seed)
				if again.desc != in.desc {
					t.Fatalf("seed %d gave %q, then %q", seed, in.desc, again.desc)
				}
				if other, dup := descs[in.desc]; dup {
					t.Fatalf("seeds %d and %d gave the same input %q", other, seed, in.desc)
				}
				descs[in.desc] = seed
				res := check(t, in)
				if err := verify(res, want, in.m, in); err != nil {
					t.Fatalf("seed %d (%s): %v", seed, in.desc, err)
				}
				if i == 0 {
					first = counts(res)
				} else if c := counts(res); c != first {
					t.Fatalf("seed %d (%s): counts %v, seed %d: %v", seed, in.desc, c, seeds[0], first)
				}
			}
		})
	}
}

func TestWorkloadSeedsChangeInputs(t *testing.T) {
	for _, w := range workloads {
		a, _, err := w.full(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := w.full(2)
		if w.name == "find-paxos-live" {
			if describe(a) != describe(b) {
				t.Errorf("%s: the seed changed the input: %q vs %q", w.name, describe(a), describe(b))
			}
			continue
		}
		if describe(a) == describe(b) {
			t.Errorf("%s: seeds 1 and 2 both gave %q", w.name, describe(a))
		}
	}
}

// TestEveryProposer checks that a cycle of everyProposer inputs has each
// node propose once and leaves every pinned count equal.
func TestEveryProposer(t *testing.T) {
	ins, want, err := paxos3GEN.everyProposer(7)
	if err != nil {
		t.Fatal(err)
	}
	proposers := map[model.NodeID]bool{}
	var first [4]int
	for i, in := range ins {
		proposers[in.m.(*paxos.Machine).Driver.(paxos.OnceAt).Node] = true
		res := check(t, in)
		if err := verify(res, want, in.m, in); err != nil {
			t.Fatalf("%s: %v", in.desc, err)
		}
		if i == 0 {
			first = counts(res)
		} else if c := counts(res); c != first {
			t.Fatalf("%s: counts %v, %s: %v", in.desc, c, ins[0].desc, first)
		}
	}
	if len(ins) != 3 || len(proposers) != 3 {
		t.Fatalf("%d inputs with %d proposers: %s", len(ins), len(proposers), describe(ins))
	}
}

func TestTracingIsTransparent(t *testing.T) {
	tr := newTracer()
	cases := map[string]func(int64) (input, expect, error){
		"find-paxos-live": liveBug,
	}
	for name, sp := range shrunkSpaces {
		cases[name] = sp.build
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			in, want, err := build(3)
			if err != nil {
				t.Fatal(err)
			}
			tin, _, err := tr.traced(in)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := tin.m.(model.Symmetric); !ok {
				t.Error("the traced machine does not forward model.Symmetric")
			}
			if _, ok := in.opt.Reduction.(spec.Keyer); ok {
				if _, ok := tin.opt.Reduction.(spec.Keyer); !ok {
					t.Error("the traced reduction does not forward spec.Keyer")
				}
			}
			plain := check(t, in)
			tr.reset()
			traced := check(t, tin)
			if err := verify(traced, want, in.m, in); err != nil {
				t.Fatal(err)
			}
			if err := sameResult(plain, traced); err != nil {
				t.Fatal(err)
			}
			if in.opt.Reduce.Symmetry && in.opt.Reduction == nil && traced.Stats.SymmetrySkips == 0 {
				t.Error("the traced check skipped no symmetric state")
			}
			_, calls, _, _, _ := tr.collect()
			if calls[layerProtocols] == 0 {
				t.Error("no handler call was traced")
			}
		})
	}
}

// hiding is a decorator that forgets model.Symmetric: the comparison above
// must notice it.
type hiding struct{ model.Machine }

func TestHidingSymmetryChangesTheResult(t *testing.T) {
	in, _, err := paxos3GENSym.build(1)
	if err != nil {
		t.Fatal(err)
	}
	plain := check(t, in)
	in.m = hiding{in.m}
	if err := sameResult(plain, check(t, in)); err == nil {
		t.Fatal("a decorator without model.Symmetric gave the same result")
	}
}

func TestAttribute(t *testing.T) {
	lanes := [][]span{
		{{start: 0, end: 100, busy: 100, layer: layerProtocols}},
		{{start: 50, end: 150, busy: 50, layer: layerInvariant}},
	}
	a, err := attribute(lanes, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	// [0,50) lane 0 alone; [50,100) both, lane 1 at half density;
	// [100,150) lane 1 alone at half density; [150,200) nothing.
	want := attribution{core: 12.5 + 25 + 50}
	want.layers[layerProtocols] = 50 + 25
	want.layers[layerInvariant] = 12.5 + 25
	if a != want {
		t.Fatalf("got %+v, want %+v", a, want)
	}
	if a.total() != 200 {
		t.Fatalf("self times sum to %v, want 200", a.total())
	}

	overlap := [][]span{{{start: 0, end: 10, layer: layerProtocols}, {start: 5, end: 20, layer: layerProtocols}}}
	if _, err := attribute(overlap, 0, 20); err == nil {
		t.Error("overlapping spans in one lane were accepted")
	}
	outside := [][]span{{{start: 0, end: 30, layer: layerProtocols}}}
	if _, err := attribute(outside, 0, 20); err == nil {
		t.Error("a span outside the check was accepted")
	}
}

func TestExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Fatalf("got q1 %v median %v q3 %v", s.q1, s.median, s.q3)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "find-paxos-live", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(time.Now(), args, &out, &errOut); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, here %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if m := b.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, here %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := b.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %d: %+v, here %+v", i, m, d)
		}
	}
}
