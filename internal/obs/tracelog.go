package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceLog collects completed spans — search phases, sweep iterations,
// control-plane round trips — as timeline events and exports them in the
// Chrome trace-event JSON format, loadable in Perfetto or
// chrome://tracing. Where the Registry aggregates (count/total/min/max
// per span name), the TraceLog keeps each occurrence with its wall-clock
// placement, so an entire presssweep or pressctl session renders as a
// timeline.
//
// Events are grouped onto tracks (rendered as separate "processes"):
// spans recorded through a Registry land on the track named by their
// first path segment ("search/greedy" → track "search"), and the control
// plane records its matched send→ack pairs explicitly on "controller"
// and "agent" tracks, correlated by trace ID.
//
// A nil *TraceLog discards every record, so instrumented code records
// unconditionally. The buffer is bounded: once cap is reached new events
// are dropped (and counted), keeping a long-running server's memory flat.
//
// A TraceLog is a long-lived component and carries the shared
// obs.Lifecycle contract: it starts collecting at construction, and
// Stop — idempotent, safe concurrently with Record — freezes it, so a
// teardown path can quiesce the log before exporting it and every
// owner (scope.CLI, scope.Scope) shuts it down the same way it shuts
// down every other obs component.
type TraceLog struct {
	life    Lifecycle
	mu      sync.Mutex
	events  []traceEvent
	max     int
	dropped int64
}

// traceEvent is one completed span occurrence.
type traceEvent struct {
	track string
	name  string
	trace uint64
	start time.Time
	dur   time.Duration
	args  map[string]any
}

// DefaultTraceCap bounds a TraceLog's buffered events (~a few MB worst
// case) unless NewTraceLogCap is used.
const DefaultTraceCap = 1 << 16

// NewTraceLog returns an empty trace log with the default capacity.
func NewTraceLog() *TraceLog { return NewTraceLogCap(DefaultTraceCap) }

// NewTraceLogCap returns an empty trace log buffering at most max events.
func NewTraceLogCap(max int) *TraceLog {
	if max <= 0 {
		max = DefaultTraceCap
	}
	t := &TraceLog{max: max}
	t.life.Start(nil, nil) // collecting from birth; Stop freezes
	return t
}

// Stop freezes the log: records arriving afterwards are dropped (and
// counted), so an exporter reading the buffer races nothing. Idempotent
// and safe on a nil log — the uniform obs teardown contract.
func (t *TraceLog) Stop() {
	if t == nil {
		return
	}
	t.life.Stop()
}

// Record appends one completed span occurrence. track groups events into
// timeline rows; trace correlates events across tracks (0 = uncorrelated);
// args are optional key→value annotations shown in the trace viewer. The
// args map is retained — callers must not mutate it afterwards. A nil
// TraceLog discards the record.
func (t *TraceLog) Record(track, name string, trace uint64, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) >= t.max || t.life.Stopped() {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, traceEvent{
		track: track, name: name, trace: trace, start: start, dur: dur, args: args,
	})
	t.mu.Unlock()
}

// Len returns the number of buffered events (0 for nil).
func (t *TraceLog) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded against the capacity
// bound.
func (t *TraceLog) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// TraceSpan is one exported event, for programmatic inspection in tests.
type TraceSpan struct {
	Track   string
	Name    string
	TraceID uint64
	Start   time.Time
	Dur     time.Duration
}

// Spans returns a copy of the buffered events in record order.
func (t *TraceLog) Spans() []TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSpan, len(t.events))
	for i, e := range t.events {
		out[i] = TraceSpan{Track: e.track, Name: e.name, TraceID: e.trace, Start: e.start, Dur: e.dur}
	}
	return out
}

// chromeEvent is the trace-event JSON shape: "X" complete events carry
// name/ts/dur on a pid/tid pair, "M" metadata events name the tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON writes the buffered events as a Chrome trace-event JSON
// array. Each track becomes its own pid with a process_name metadata
// record; ts/dur are microseconds, with span wall-clock times carried
// verbatim so traces from separate processes (controller and agent
// binaries) line up when concatenated.
func (t *TraceLog) WriteJSON(w io.Writer) error {
	var events []traceEvent
	if t != nil {
		t.mu.Lock()
		events = append([]traceEvent(nil), t.events...)
		t.mu.Unlock()
	}

	// Assign stable pids by sorted track name.
	trackSet := map[string]bool{}
	for _, e := range events {
		trackSet[e.track] = true
	}
	tracks := make([]string, 0, len(trackSet))
	for tr := range trackSet {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	pids := make(map[string]int, len(tracks))
	out := make([]chromeEvent, 0, len(events)+len(tracks))
	for i, tr := range tracks {
		pids[tr] = i + 1
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1, Tid: 0,
			Args: map[string]any{"name": tr},
		})
	}
	for _, e := range events {
		args := e.args
		if e.trace != 0 {
			// Copy so the recorded map is never mutated.
			withTrace := make(map[string]any, len(args)+1)
			for k, v := range args {
				withTrace[k] = v
			}
			withTrace["trace_id"] = FormatTraceID(e.trace)
			args = withTrace
		}
		cat := e.track
		if i := strings.IndexByte(e.name, '/'); i > 0 {
			cat = e.name[:i]
		}
		out = append(out, chromeEvent{
			Name: e.name,
			Cat:  cat,
			Ph:   "X",
			Ts:   float64(e.start.UnixNano()) / 1e3,
			Dur:  float64(e.dur.Nanoseconds()) / 1e3,
			Pid:  pids[e.track],
			Tid:  1,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// FormatTraceID renders a trace ID in the canonical joinable form used
// everywhere an ID is serialized — Chrome-trace span args, sweep records,
// CSV columns — so a recorded measurement row greps directly against its
// trace span. Zero (no trace) renders as "".
func FormatTraceID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%#016x", id)
}

// traceIDCounter and traceIDSalt make NewTraceID unique within a process
// and overwhelmingly unlikely to collide across processes.
var (
	traceIDCounter atomic.Uint64
	traceIDSalt    = uint64(time.Now().UnixNano())
)

// NewTraceID returns a fresh nonzero trace ID. IDs are cheap (no
// allocation) and well-mixed, so they double as correlation keys across
// controller and agent processes.
func NewTraceID() uint64 {
	id := splitmix64(traceIDSalt + traceIDCounter.Add(1))
	if id == 0 {
		id = 1 // 0 means "no trace" on the wire
	}
	return id
}

// splitmix64 is the SplitMix64 finalizer — a fast, high-quality mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
