package obs_test

import (
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/scope"
)

// Span summaries reach the registry through scope.Span.Time; these are
// the registry's span cases.

func TestSpanRecordsDurations(t *testing.T) {
	r := obs.NewRegistry()
	sc := scope.Adopt("", r, nil, nil, nil, nil)
	sp := sc.Time("search/greedy")
	inner := sc.Time("search/greedy/measure")
	time.Sleep(time.Millisecond)
	if d := inner.End(); d <= 0 {
		t.Errorf("inner duration = %v", d)
	}
	if d := sp.End(); d <= 0 {
		t.Errorf("outer duration = %v", d)
	}
	snap := r.Snapshot()
	outer, ok := snap.Spans["search/greedy"]
	if !ok || outer.Count != 1 || outer.TotalSeconds <= 0 {
		t.Errorf("outer span snapshot = %+v (ok=%v)", outer, ok)
	}
	if outer.MinSeconds > outer.MaxSeconds {
		t.Errorf("min %g > max %g", outer.MinSeconds, outer.MaxSeconds)
	}
	if _, ok := snap.Spans["search/greedy/measure"]; !ok {
		t.Error("nested span missing from snapshot")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	sp := scope.Adopt("", reg, nil, nil, nil, nil).Time("phase")
	if d := sp.End(); d <= 0 {
		t.Fatal("first End returned 0")
	}
	if d := sp.End(); d != 0 {
		t.Errorf("second End returned %v, want 0", d)
	}
	snap := reg.Snapshot()
	if snap.Spans["phase"].Count != 1 {
		t.Errorf("span recorded %d times, want 1", snap.Spans["phase"].Count)
	}
}
