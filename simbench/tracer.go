package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"press/internal/obs"
)

// maxSpans bounds the spans kept for the Chrome trace file. Aggregates
// are computed as spans end, so spans past the bound still count.
const maxSpans = obs.DefaultTraceCap

// span is one completed span. Times are on the tracer's clock, which
// stops while a shadow call runs (see tracer.shadow).
type span struct {
	name   string
	op     int
	parent int32 // index into tracer.spans; -1 for a root or a dropped parent
	start  time.Duration
	dur    time.Duration
	shadow bool
}

// openSpan is a span in progress on the tracer's stack.
type openSpan struct {
	name     string
	idx      int32 // index the span will take in spans, or -1 if dropped
	start    time.Duration
	children time.Duration
}

// agg accumulates every span of one name.
type agg struct {
	n    int
	dur  time.Duration
	self time.Duration
}

// tracer records spans around the benchmark's calls into the simulator.
// A nil *tracer records nothing, so untraced runs pay one pointer check
// per boundary.
//
// Shadow calls repeat a public call on the same inputs to time a layer
// that runs inside another call. The clock stops while a shadow runs, so
// no real span contains shadow time; the shadow's duration is booked as a
// child of the span open around it, which lowers that span's self time.
type tracer struct {
	t0     time.Time
	paused time.Duration
	op     int
	stack  []openSpan
	spans  []span
	aggs   map[string]*agg
	drops  int
	// kept holds every control-plane round trip, for its median.
	kept []time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: map[string]*agg{}}
}

// now is the tracer's clock: wall time since start minus shadow time.
func (t *tracer) now() time.Duration { return time.Since(t.t0) - t.paused }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{}) // reserved; filled in by end
	}
	t.stack = append(t.stack, openSpan{name: name, idx: idx, start: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := t.now() - s.start
	t.book(s.name, s.idx, s.start, dur, s.children, false)
}

// shadow runs f with the clock stopped and books its duration as a
// child span named name under the innermost open span.
func (t *tracer) shadow(name string, f func()) {
	if t == nil {
		return
	}
	dur := t.offClock(f)
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{})
	}
	t.book(name, idx, t.now(), dur, 0, true)
}

// offClock runs f with the clock stopped and returns how long it took.
func (t *tracer) offClock(f func()) time.Duration {
	start := time.Now()
	f()
	dur := time.Since(start)
	t.paused += dur
	return dur
}

func (t *tracer) book(name string, idx int32, start, dur, children time.Duration, shadow bool) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += dur
		parent = t.stack[n-1].idx
	}
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	if name == "controlplane.SetConfig" {
		t.kept = append(t.kept, dur)
	}
	a.n++
	a.dur += dur
	a.self += dur - children
	if idx >= 0 {
		t.spans[idx] = span{name: name, op: t.op, parent: parent, start: start, dur: dur, shadow: shadow}
	} else {
		t.drops++
	}
}

// dur and self return the summed duration and self time of every span
// named name.
func (t *tracer) dur(name string) time.Duration  { return t.get(name).dur }
func (t *tracer) self(name string) time.Duration { return t.get(name).self }

func (t *tracer) get(name string) agg {
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// layerShares returns each layer's self time as a share of op time; a
// layer is the first segment of a span name. The shares sum to the part
// of op time some layer accounts for.
func (t *tracer) layerShares() map[string]float64 {
	out := map[string]float64{}
	op := float64(t.dur("op"))
	for name, a := range t.aggs {
		if name != "op" {
			layer, _, _ := strings.Cut(name, ".")
			out[layer] += float64(a.self) / op
		}
	}
	return out
}

// writeChrome writes the kept spans as Chrome trace events through
// obs.TraceLog, one track per layer (the name's first segment), with the
// op number as the trace ID.
func (t *tracer) writeChrome(path string) error {
	tl := obs.NewTraceLogCap(len(t.spans) + 1)
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent}
		if s.shadow {
			args["shadow"] = true
		}
		track, _, _ := strings.Cut(s.name, ".")
		tl.Record(track, s.name, uint64(s.op)+1, t.t0.Add(s.start), s.dur, args)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
