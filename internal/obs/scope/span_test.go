package scope

import (
	"testing"

	"press/internal/obs/prof"
)

// TestSpanSinks opens one span per sink combination a call site uses
// and checks that exactly the named sinks move: the registry's span
// summary, the phase's calls and aux counter, and the loop node's name
// and parent.
func TestSpanSinks(t *testing.T) {
	cases := []struct {
		site string
		open func(sc *Scope, parent Span) Span
		// want: registry span name ("" = none), phase accounted (nil =
		// none), loop node name ("" = none) and its parent's name.
		name        string
		phase       *prof.Phase
		node, under string
	}{
		{site: "propagation.TracePaths", phase: phase(prof.PhaseTrace),
			open: func(sc *Scope, _ Span) Span { return sc.Start(prof.PhaseTrace) }},
		{site: "pressim exp", name: "exp/fig4",
			open: func(sc *Scope, _ Span) Span { return sc.Time("exp/fig4") }},
		{site: "radio.Link.Sweep", name: "radio/sweep", phase: phase(prof.PhaseSweep),
			open: func(sc *Scope, _ Span) Span { return sc.Start(prof.PhaseSweep).Time("radio/sweep") }},
		{site: "control search run", name: "search/greedy", node: "search", under: "loop",
			open: func(sc *Scope, _ Span) Span { return sc.Time("search/greedy").Node("search") }},
		{site: "control search eval", phase: phase(prof.PhaseSearch), node: "measure", under: "parent",
			open: func(_ *Scope, p Span) Span { return p.Child("measure").Start(prof.PhaseSearch) }},
		{site: "controlplane actuate", phase: phase(prof.PhaseActuate), node: "actuate", under: "loop",
			open: func(sc *Scope, _ Span) Span { return sc.Start(prof.PhaseActuate).Node("actuate") }},
		{site: "controlplane ack", node: "ack", under: "parent",
			open: func(_ *Scope, p Span) Span { return p.Child("ack") }},
		{site: "demo sense", node: "sense", under: "loop",
			open: func(sc *Scope, _ Span) Span { return sc.Node("sense") }},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			sc, err := New("room", nil, Config{PhaseAccounting: true, LoopTracing: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			l := sc.Tracer().StartLoop("loop")
			parent := sc.Node("parent")
			sp := tc.open(sc, parent)
			sp.Add(0, 3)
			if d := sp.End(); d <= 0 {
				t.Errorf("End = %v, want > 0", d)
			}
			parent.End()
			l.End()

			spans := sc.Registry().Snapshot().Spans
			if tc.name == "" && len(spans) != 0 || tc.name != "" && (len(spans) != 1 || spans[tc.name].Count != 1) {
				t.Errorf("registry spans = %+v, want only %q once", spans, tc.name)
			}

			costs := sc.Prof().Snapshot()
			switch {
			case tc.phase == nil && len(costs) != 0:
				t.Errorf("phase costs = %+v, want none", costs)
			case tc.phase != nil:
				if len(costs) != 1 || costs[0].Phase != tc.phase.Name() || costs[0].Calls != 1 ||
					len(costs[0].Aux) != 1 || costs[0].Aux[0].Value != 3 {
					t.Errorf("phase costs = %+v, want one %s call with aux 3", costs, tc.phase.Name())
				}
			}

			rep := sc.Tracer().Snapshot()
			if len(rep.Slowest) != 1 {
				t.Fatalf("retained %d loops, want 1", len(rep.Slowest))
			}
			names := map[uint32]string{}
			for _, n := range rep.Slowest[0].Spans {
				names[n.ID] = n.Name
			}
			var got []string
			for _, n := range rep.Slowest[0].Spans {
				if n.Name != "loop" && n.Name != "parent" {
					got = append(got, n.Name+" under "+names[n.Parent])
				}
			}
			want := tc.node + " under " + tc.under
			if tc.node == "" && len(got) != 0 || tc.node != "" && (len(got) != 1 || got[0] != want) {
				t.Errorf("loop nodes = %q, want only %q", got, want)
			}
		})
	}

	t.Run("nil scope allocates nothing", func(t *testing.T) {
		var sc *Scope
		for _, tc := range cases {
			if n := testing.AllocsPerRun(100, func() {
				parent := sc.Node("parent")
				sp := tc.open(sc, parent)
				sp.Add(0, 3)
				sp.End()
				parent.End()
			}); n != 0 {
				t.Errorf("%s: %v allocs/op on a nil scope, want 0", tc.site, n)
			}
		}
	})
}

func phase(p prof.Phase) *prof.Phase { return &p }
