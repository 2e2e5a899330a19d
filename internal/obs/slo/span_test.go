package slo_test

import (
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

// Loop nodes are opened through scope.Span (Node under the root, Child
// under a span's node); these cases drive the tracer that way.
// tracingScope adopts tr as a scope's only sink.
func tracingScope(tr *slo.Tracer) *scope.Scope {
	return scope.Adopt("", nil, nil, nil, nil, nil).WithTracer(tr)
}

// onlyExemplar returns the one retained exemplar's nodes by name.
func onlyExemplar(t *testing.T, tr *slo.Tracer) map[string]slo.SpanNode {
	t.Helper()
	rep := tr.Snapshot()
	if len(rep.Slowest) != 1 {
		t.Fatalf("retained %d exemplars, want 1", len(rep.Slowest))
	}
	byName := map[string]slo.SpanNode{}
	for _, sp := range rep.Slowest[0].Spans {
		byName[sp.Name] = sp
	}
	return byName
}

func TestLoopSpanTree(t *testing.T) {
	tr := slo.NewTracer(obs.NewRegistry(), slo.Config{Deadline: time.Minute})
	sc := tracingScope(tr)
	l := tr.StartLoop("iteration")
	if tr.Current() != l {
		t.Fatal("StartLoop did not become Current")
	}
	if l.Trace() == 0 || l.Seq() != 1 || l.Deadline() != time.Minute {
		t.Fatalf("loop identity: trace=%#x seq=%d deadline=%v", l.Trace(), l.Seq(), l.Deadline())
	}

	sense := sc.Node("sense")
	measure := sense.Child("measure") // explicit parenting under sense
	measure.End()
	sense.End()
	orphan := sc.Node("orphan") // a node always attaches to the root
	orphan.End()
	act := sc.Node("actuate")
	ack := act.Child("ack")
	ack.End()
	act.End()
	act.End() // idempotent

	st := l.End()
	if st.Missed || st.Latency <= 0 || st.Slack <= 0 {
		t.Errorf("fast loop misjudged: %+v", st)
	}
	if tr.Current() != nil {
		t.Error("ended loop still Current")
	}

	byName := onlyExemplar(t, tr)
	wantParent := map[string]string{
		"sense": "iteration", "measure": "sense", "orphan": "iteration",
		"actuate": "iteration", "ack": "actuate",
	}
	for child, parent := range wantParent {
		c, ok := byName[child]
		if !ok {
			t.Fatalf("span %q missing from tree", child)
		}
		if byName[parent].ID != c.Parent {
			t.Errorf("span %q parent = #%d, want %q (#%d)", child, c.Parent, parent, byName[parent].ID)
		}
		if c.DurNs <= 0 {
			t.Errorf("span %q has no duration", child)
		}
	}
	if byName["iteration"].ID != 1 || byName["iteration"].Parent != 0 {
		t.Errorf("root span malformed: %+v", byName["iteration"])
	}
	if byName["iteration"].DurNs != int64(st.Latency) {
		t.Error("root span duration != loop latency")
	}
}

// TestLateNodeCloseLeavesExemplar: End publishes the loop's tree to the
// /tracez reservoir and the flight log; a node closed afterwards must
// not rewrite the published copy.
func TestLateNodeCloseLeavesExemplar(t *testing.T) {
	tr := slo.NewTracer(nil, slo.Config{})
	sc := tracingScope(tr)
	l := tr.StartLoop("loop")
	act := sc.Node("actuate")
	l.End()
	time.Sleep(2 * time.Millisecond)
	act.End()
	if d := onlyExemplar(t, tr)["actuate"].DurNs; d != 0 {
		t.Errorf("late close rewrote the exemplar's actuate node: dur %d ns, want 0", d)
	}
	// Nodes opened after End are not added either.
	late := sc.Node("late")
	late.End()
	if _, ok := onlyExemplar(t, tr)["late"]; ok {
		t.Error("node opened after End joined the published tree")
	}
}

// BenchmarkNilTracerLoop is the disabled-path cost the repository's
// telemetry convention promises: pointer checks only, 0 allocs/op
// (gate-enforced via BENCH_slo.json).
func BenchmarkNilTracerLoop(b *testing.B) {
	var sc *scope.Scope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := sc.Tracer().StartLoop("loop")
		ph := sc.Node("sense")
		m := ph.Child("measure")
		m.End()
		ph.End()
		l.End()
		if sc.Tracer().Current() != nil {
			b.Fatal("nil tracer current")
		}
	}
}

// BenchmarkTracerLoop is the enabled-path reference cost.
func BenchmarkTracerLoop(b *testing.B) {
	tr := slo.NewTracer(obs.NewRegistry(), slo.Config{Deadline: time.Second})
	sc := tracingScope(tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := tr.StartLoop("loop")
		ph := sc.Node("sense")
		m := ph.Child("measure")
		m.End()
		ph.End()
		l.End()
	}
}
