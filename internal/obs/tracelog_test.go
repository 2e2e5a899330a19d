package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceLogNilSafe(t *testing.T) {
	var tl *TraceLog
	tl.Record("track", "name", 1, time.Now(), time.Millisecond, nil)
	if tl.Len() != 0 || tl.Dropped() != 0 || tl.Spans() != nil {
		t.Error("nil TraceLog should be empty")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("nil export is not a JSON array: %v", err)
	}
}

// TestTraceLogStopFreezes: Stop ends the collection lifecycle — later
// Records are counted as dropped, not appended, so an export written
// at shutdown is stable even if stray spans end after it.
func TestTraceLogStopFreezes(t *testing.T) {
	tl := NewTraceLog()
	tl.Record("track", "before", 1, time.Now(), time.Millisecond, nil)
	tl.Stop()
	tl.Record("track", "after", 2, time.Now(), time.Millisecond, nil)
	if tl.Len() != 1 {
		t.Errorf("Len = %d after Stop, want 1", tl.Len())
	}
	if tl.Dropped() != 1 {
		t.Errorf("Dropped = %d after Stop, want 1", tl.Dropped())
	}
	tl.Stop() // idempotent
}

// TestTraceLogChromeSchema validates the export against the trace-event
// schema: every event carries the required name/ph/ts/pid/tid keys, "X"
// events carry dur, and trace IDs surface in args.
func TestTraceLogChromeSchema(t *testing.T) {
	tl := NewTraceLog()
	base := time.Now()
	tl.Record("controller", "controlplane/set-config", 0xabcd, base, 2*time.Millisecond,
		map[string]any{"seq": 7})
	tl.Record("agent", "controlplane/set-config", 0xabcd, base.Add(time.Millisecond), time.Millisecond, nil)
	tl.Record("search", "search/greedy", 0, base, 5*time.Millisecond, nil)

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a JSON array: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, ev := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %v missing required key %q", ev, key)
			}
		}
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event %v missing dur", ev)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 3 { // one process_name per track
		t.Errorf("metadata events = %d, want 3", meta)
	}
	if !strings.Contains(buf.String(), "0x000000000000abcd") {
		t.Errorf("trace id missing from args:\n%s", buf.String())
	}
}

// TestTraceLogCorrelation checks that the same trace ID lands on both
// tracks with distinct pids — the cross-process matching the control
// plane relies on.
func TestTraceLogCorrelation(t *testing.T) {
	tl := NewTraceLog()
	id := NewTraceID()
	tl.Record("controller", "rpc", id, time.Now(), time.Millisecond, nil)
	tl.Record("agent", "rpc", id, time.Now(), time.Millisecond, nil)
	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("len = %d", len(spans))
	}
	if spans[0].TraceID != spans[1].TraceID || spans[0].TraceID == 0 {
		t.Errorf("trace ids %x vs %x", spans[0].TraceID, spans[1].TraceID)
	}
	if spans[0].Track == spans[1].Track {
		t.Errorf("tracks should differ, both %q", spans[0].Track)
	}
}

func TestTraceLogBounded(t *testing.T) {
	tl := NewTraceLogCap(4)
	for i := 0; i < 10; i++ {
		tl.Record("t", "e", 0, time.Now(), time.Microsecond, nil)
	}
	if tl.Len() != 4 {
		t.Errorf("len = %d, want 4", tl.Len())
	}
	if tl.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tl.Dropped())
	}
}

func TestRegistrySpansFlowIntoTraceLog(t *testing.T) {
	reg := NewRegistry()
	tl := NewTraceLog()
	reg.SetTraceLog(tl)
	reg.ObserveSpan("sweep/convergence", time.Now(), time.Millisecond)
	spans := tl.Spans()
	if len(spans) != 1 {
		t.Fatalf("trace events = %d, want 1", len(spans))
	}
	if spans[0].Track != "sweep" || spans[0].Name != "sweep/convergence" {
		t.Errorf("event = %+v", spans[0])
	}
	reg.SetTraceLog(nil)
	reg.ObserveSpan("x", time.Now(), time.Millisecond)
	if tl.Len() != 1 {
		t.Error("detached trace log still receiving spans")
	}
}

// TestTraceLogConcurrentRecordExport hammers Record from several
// goroutines while WriteJSON and Spans read concurrently — the race
// detector proves the mutex discipline (tracez snapshots export live
// logs while control loops are still recording into them).
func TestTraceLogConcurrentRecordExport(t *testing.T) {
	tl := NewTraceLogCap(256)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tl.Record("track", "loop/phase", uint64(g*1000+i), time.Now(),
					time.Microsecond, map[string]any{"g": g})
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := tl.WriteJSON(&buf); err != nil {
			t.Errorf("WriteJSON during writes: %v", err)
			break
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Errorf("concurrent export is not valid JSON: %v", err)
			break
		}
		_ = tl.Spans()
	}
	wg.Wait()
	if tl.Len() != 256 {
		t.Errorf("len = %d, want full cap 256", tl.Len())
	}
	if tl.Dropped() != 4*500-256 {
		t.Errorf("dropped = %d, want %d", tl.Dropped(), 4*500-256)
	}
}

// TestFormatTraceIDRoundTrip checks the exported form parses back to the
// same 8-byte ID (the contract joining /tracez exemplars, alert events,
// and Chrome-trace args to control-plane frames).
func TestFormatTraceIDRoundTrip(t *testing.T) {
	if s := FormatTraceID(0); s != "" {
		t.Errorf("FormatTraceID(0) = %q, want \"\" (no trace)", s)
	}
	for _, id := range []uint64{1, 0xabcd, 1<<64 - 1, NewTraceID()} {
		s := FormatTraceID(id)
		if len(s) != 18 || !strings.HasPrefix(s, "0x") {
			t.Errorf("FormatTraceID(%d) = %q, want 0x + 16 hex digits", id, s)
		}
		back, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("FormatTraceID(%d) = %q does not parse: %v", id, s, err)
		}
		if back != id {
			t.Errorf("round trip %d -> %q -> %d", id, s, back)
		}
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x", id)
		}
		seen[id] = true
	}
}
