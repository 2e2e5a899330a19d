package slo

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.SetDeadline(time.Second)
	if tr.Deadline() != 0 {
		t.Error("nil tracer has a deadline")
	}
	l := tr.StartLoop("loop")
	if l != nil || tr.Current() != nil {
		t.Fatal("nil tracer handed out a loop")
	}
	// Every method on the nil loop must no-op.
	if id := l.AddNode(0, "sense", time.Now()); id != 0 {
		t.Errorf("nil loop AddNode = %d, want 0", id)
	}
	l.EndNode(1, time.Second)
	if l.Trace() != 0 || l.Seq() != 0 || l.Deadline() != 0 {
		t.Error("nil loop leaks identity")
	}
	if st := l.End(); st != (Stats{}) {
		t.Errorf("nil loop End = %+v", st)
	}
	rep := tr.Snapshot()
	if rep.Loops != 0 || len(rep.Slowest) != 0 {
		t.Errorf("nil tracer snapshot = %+v", rep)
	}
	w := httptest.NewRecorder()
	tr.ServeTracez(w, httptest.NewRequest("GET", "/tracez", nil))
	if w.Code != 200 {
		t.Errorf("nil tracer /tracez status %d", w.Code)
	}
}

func TestLoopSpanCap(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, Config{MaxSpans: 4})
	l := tr.StartLoop("loop")
	for i := 0; i < 10; i++ {
		l.EndNode(l.AddNode(0, "c", time.Now()), 0)
	}
	l.End()
	if n := len(l.spans); n != 4 {
		t.Errorf("span tree has %d nodes, cap 4", n)
	}
	if v := reg.Counter("slo_spans_dropped_total").Value(); v != 7 {
		t.Errorf("slo_spans_dropped_total = %d, want 7", v)
	}
}

func TestLoopEndFansOut(t *testing.T) {
	reg := obs.NewRegistry()
	mon := health.NewMonitor(nil, nil, time.Hour, 8)
	dir := filepath.Join(t.TempDir(), "run-1")
	rec, err := flight.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(reg, Config{Deadline: time.Nanosecond, Flight: rec, Health: mon})

	l := tr.StartLoop("slow")
	l.EndNode(l.AddNode(0, "search", time.Now()), 0)
	time.Sleep(time.Millisecond)
	st := l.End()
	if !st.Missed {
		t.Fatalf("1ns deadline not missed: %+v", st)
	}

	if v := reg.Counter("slo_loops_total").Value(); v != 1 {
		t.Errorf("slo_loops_total = %d", v)
	}
	if v := reg.Counter("slo_deadline_miss_total").Value(); v != 1 {
		t.Errorf("slo_deadline_miss_total = %d", v)
	}
	// The latency histogram carries the loop's trace as an exemplar.
	_, trace, ok := reg.Histogram("slo_loop_latency_seconds", obs.LatencyBuckets).Exemplar()
	if !ok || trace != l.Trace() {
		t.Errorf("latency exemplar trace = %#x ok=%v, want %#x", trace, ok, l.Trace())
	}

	// Health: the loop KPIs appear on the next sample.
	mon.Sample()
	if pts := mon.Snapshot().Series[health.KPILoopMissRatio]; len(pts) != 1 || pts[0].Value != 1 {
		t.Errorf("loop_miss_ratio series = %+v", pts)
	}

	// Flight: the run decodes with one KindLoop frame.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Loops) != 1 {
		t.Fatalf("decoded %d loop records", len(run.Loops))
	}
	lr := run.Loops[0]
	if lr.TraceID != l.Trace() || !lr.Missed || lr.Name != "slow" || lr.Seq != 1 {
		t.Errorf("loop record = %+v", lr)
	}
	if len(lr.Phases) != 1 || lr.Phases[0].Name != "search" {
		t.Errorf("loop record phases = %+v", lr.Phases)
	}
}

func TestReservoirTailSampling(t *testing.T) {
	var r reservoir
	r.init(2, 2)
	mk := func(lat int64, missed bool) *Exemplar {
		return &Exemplar{LatencyNs: lat, Missed: missed, TraceID: uint64(lat)}
	}
	r.offer(mk(10, false))
	r.offer(mk(50, false))
	r.offer(mk(30, false)) // slower than nothing retained? no: 10 evicted
	r.offer(mk(5, false))  // too fast, dropped
	slow := r.slowest()
	if len(slow) != 2 || slow[0].LatencyNs != 50 || slow[1].LatencyNs != 30 {
		t.Errorf("slowest = %v, want [50 30]", []int64{slow[0].LatencyNs, slow[1].LatencyNs})
	}
	r.offer(mk(100, true))
	r.offer(mk(101, true))
	r.offer(mk(102, true)) // ring wraps: 100 evicted
	miss := r.misses()
	if len(miss) != 2 || miss[0].LatencyNs != 102 || miss[1].LatencyNs != 101 {
		t.Errorf("misses = %+v, want [102 101]", miss)
	}
}

// TestTracerStopFreezesReservoir: after Stop, ending loops still score
// (counters, health) but no longer replace retained exemplars, so a
// /tracez reader during teardown sees a quiescent set.
func TestTracerStopFreezesReservoir(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, Config{Deadline: time.Nanosecond})
	l := tr.StartLoop("before")
	time.Sleep(50 * time.Microsecond)
	l.End()
	tr.Stop()
	l = tr.StartLoop("after")
	time.Sleep(50 * time.Microsecond)
	l.End()

	rep := tr.Snapshot()
	if rep.Loops != 2 {
		t.Errorf("Loops = %d, want 2 (scoring continues past Stop)", rep.Loops)
	}
	for _, ex := range append(rep.Slowest, rep.MissExemplars...) {
		if ex.Name == "after" {
			t.Errorf("reservoir accepted exemplar %q after Stop", ex.Name)
		}
	}
	tr.Stop() // idempotent
}

func TestTracezReport(t *testing.T) {
	tr := NewTracer(nil, Config{Deadline: time.Nanosecond})
	l := tr.StartLoop("loop")
	l.EndNode(l.AddNode(0, "sense", time.Now()), 0)
	time.Sleep(100 * time.Microsecond)
	l.End()

	rep := tr.Snapshot()
	if rep.Loops != 1 || rep.Misses != 1 || rep.MissRatio != 1 {
		t.Fatalf("report totals: %+v", rep)
	}
	if len(rep.MissExemplars) != 1 || len(rep.Slowest) != 1 {
		t.Fatalf("report exemplars: %+v", rep)
	}
	ex := rep.MissExemplars[0]
	if ex.TraceID != obs.FormatTraceID(l.Trace()) {
		t.Errorf("exemplar trace = %q", ex.TraceID)
	}
	if len(ex.Spans) != 2 {
		t.Errorf("exemplar spans = %+v", ex.Spans)
	}

	// The JSON endpoint round-trips, and the chrome export is a valid
	// trace-event document containing the phase span.
	w := httptest.NewRecorder()
	tr.ServeTracez(w, httptest.NewRequest("GET", "/tracez", nil))
	var decoded Report
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/tracez JSON: %v\n%s", err, w.Body.String())
	}
	if decoded.Misses != 1 || len(decoded.MissExemplars) != 1 {
		t.Errorf("decoded report: %+v", decoded)
	}

	w = httptest.NewRecorder()
	tr.ServeTracez(w, httptest.NewRequest("GET", "/tracez?format=chrome", nil))
	body := w.Body.String()
	if !strings.Contains(body, `"ph":"X"`) || !strings.Contains(body, `"sense"`) {
		t.Errorf("chrome export missing spans: %s", body)
	}
}

func TestTracerSetDeadline(t *testing.T) {
	tr := NewTracer(nil, Config{})
	if tr.Deadline() != 0 {
		t.Fatal("unset deadline non-zero")
	}
	// No deadline: loops are timed but never missed.
	l := tr.StartLoop("free")
	if st := l.End(); st.Missed || st.Slack != 0 {
		t.Errorf("deadline-free loop: %+v", st)
	}
	tr.SetDeadline(8 * time.Millisecond)
	if tr.Deadline() != 8*time.Millisecond {
		t.Fatal("SetDeadline lost")
	}
	if l := tr.StartLoop("bounded"); l.Deadline() != 8*time.Millisecond {
		t.Errorf("loop deadline = %v", l.Deadline())
	}
}
