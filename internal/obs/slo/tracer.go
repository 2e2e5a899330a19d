// Package slo traces control-loop iterations against their coherence
// deadline. Each iteration becomes a span tree — sense, search,
// per-measurement, actuate, ack — keyed by the control plane's 8-byte
// trace ID, stamped with the deadline the channel physics allows
// (CoherenceBudget at the scenario's endpoint speed), and scored as hit
// or miss. The tracer feeds four sinks: latency/slack histograms and
// miss counters in the registry (with exemplar trace IDs), KindLoop
// flight-recorder frames for replay comparison, the health monitor's
// loop_* KPIs behind the burn-rate alert, and a bounded tail-sampling
// reservoir serving exemplar span trees at /tracez.
//
// A nil *Tracer (and the nil *Loop it hands out) disables everything
// at the cost of a pointer check — the package-wide
// convention — so producers hold one unconditionally.
package slo

import (
	"sync"
	"sync/atomic"
	"time"

	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
)

// Defaults for Config's tuning knobs.
const (
	// DefaultMaxSpans caps one loop's span tree; further spans are
	// counted as dropped rather than grown without bound.
	DefaultMaxSpans = 256
	// DefaultSlowN is the slowest-loop reservoir size.
	DefaultSlowN = 16
	// DefaultMissN is the deadline-miss exemplar ring size.
	DefaultMissN = 64
)

// SlackBuckets spans the slack histogram: negative buckets resolve how
// badly deadlines are missed, positive ones how much margin remains.
var SlackBuckets = []float64{
	-1, -0.25, -0.1, -0.025, -0.01, -0.0025, -0.001,
	0, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 1,
}

// Config tunes a Tracer.
type Config struct {
	// Deadline is the per-iteration coherence deadline (0 = none).
	// Derive it from the channel physics with press.CoherenceBudgetAtSpeed
	// or press.CoherenceTimeAtSpeed; adjustable later via SetDeadline.
	Deadline time.Duration
	// Flight, when set, persists every ended loop as a KindLoop frame,
	// so pressctl replay/rundiff can compare loop latency across runs.
	Flight *flight.Recorder
	// Health, when set, receives every ended loop as an ObserveLoop
	// observation — the feed behind the loop_* KPIs and the burn-rate
	// alert rule.
	Health *health.Monitor
	// MaxSpans, SlowN, MissN bound the span tree and the reservoir;
	// non-positive values take the defaults.
	MaxSpans int
	SlowN    int
	MissN    int
}

// Tracer assembles per-iteration span trees and scores them against the
// coherence deadline. Methods are safe for concurrent use; the expected
// shape is one loop at a time per tracer (one tracer per session scope).
type Tracer struct {
	reg      *obs.Registry
	rec      *flight.Recorder
	mon      *health.Monitor
	maxSpans int

	deadlineNs atomic.Int64
	seq        atomic.Uint64
	loops      atomic.Uint64
	misses     atomic.Uint64
	cur        atomic.Pointer[Loop]

	res reservoir

	// life is the shared obs.Lifecycle: the tracer collects from
	// construction, and Stop freezes the tail-sampling reservoir so a
	// teardown path (scope.Scope.Close, scope.CLI.Finish) can quiesce it
	// with the same idempotent contract every other obs component has.
	// Metrics and flight frames keep flowing after Stop — they belong
	// to the registry/recorder lifecycles, not the reservoir's.
	life obs.Lifecycle

	phaseMu    sync.Mutex
	phaseHists map[string]*obs.Histogram
}

// NewTracer builds a tracer recording into reg (nil disables the metric
// mirror but not the tracer) and the sinks in cfg.
func NewTracer(reg *obs.Registry, cfg Config) *Tracer {
	t := &Tracer{
		reg:        reg,
		rec:        cfg.Flight,
		mon:        cfg.Health,
		maxSpans:   cfg.MaxSpans,
		phaseHists: make(map[string]*obs.Histogram, 8),
	}
	if t.maxSpans <= 0 {
		t.maxSpans = DefaultMaxSpans
	}
	t.deadlineNs.Store(int64(cfg.Deadline))
	t.res.init(cfg.SlowN, cfg.MissN)
	t.life.Start(nil, nil) // sampling from birth; Stop freezes the reservoir
	return t
}

// Stop freezes the tail-sampling reservoir: loops ending afterwards
// still score against the registry, flight log, and health monitor, but
// no longer replace retained exemplars, so /tracez readers during
// teardown see a quiescent set. Idempotent; safe on a nil tracer.
func (t *Tracer) Stop() {
	if t == nil {
		return
	}
	t.life.Stop()
}

// SetDeadline changes the per-iteration coherence deadline (0 = none).
// Safe on a nil tracer.
func (t *Tracer) SetDeadline(d time.Duration) {
	if t == nil {
		return
	}
	t.deadlineNs.Store(int64(d))
}

// Deadline returns the current per-iteration deadline; 0 on a nil
// tracer or when none is set.
func (t *Tracer) Deadline() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.deadlineNs.Load())
}

// StartLoop opens a new loop iteration named name (the root span),
// assigns it a fresh control-plane trace ID, and makes it Current. A
// nil tracer returns a nil loop, on which every method no-ops.
func (t *Tracer) StartLoop(name string) *Loop {
	if t == nil {
		return nil
	}
	now := time.Now()
	l := &Loop{
		t:        t,
		trace:    obs.NewTraceID(),
		seq:      t.seq.Add(1),
		deadline: t.Deadline(),
		start:    now,
		spans:    make([]SpanNode, 1, 16),
	}
	l.spans[0] = SpanNode{ID: rootSpanID, Name: name, StartUnixNs: now.UnixNano()}
	t.cur.Store(l)
	return l
}

// Current returns the loop in flight, so layers below the loop driver
// (searchers, the control plane) can attach child spans without
// threading the loop through every signature. Nil when no loop is open
// or on a nil tracer.
func (t *Tracer) Current() *Loop {
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

// rootSpanID is the span ID of every loop's root.
const rootSpanID = 1

// SpanNode is one node of a loop's span tree. Parent is the parent
// span's ID; the root (ID 1) has Parent 0.
type SpanNode struct {
	ID          uint32 `json:"id"`
	Parent      uint32 `json:"parent"`
	Name        string `json:"name"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
}

// Loop is one control-loop iteration under construction. scope.Span
// attaches nodes (AddNode/EndNode); End scores the iteration. Safe for
// concurrent node attachment; nil-safe throughout.
type Loop struct {
	t        *Tracer
	trace    uint64
	seq      uint64
	deadline time.Duration
	start    time.Time

	mu      sync.Mutex
	spans   []SpanNode
	dropped int
	ended   bool
}

// Trace returns the loop's control-plane trace ID; 0 on nil.
func (l *Loop) Trace() uint64 {
	if l == nil {
		return 0
	}
	return l.trace
}

// Seq returns the loop's iteration number (1-based); 0 on nil.
func (l *Loop) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq
}

// Deadline returns the coherence deadline this iteration runs against.
func (l *Loop) Deadline() time.Duration {
	if l == nil {
		return 0
	}
	return l.deadline
}

// AddNode appends a node named name to the loop's span tree, under the
// node parent (0: under the root), started at start, and returns its ID
// for EndNode. It returns 0 — a node EndNode ignores — on a nil loop,
// after End, and past the span cap, where it counts the node as dropped.
// scope.Span is the caller: Node and Child open nodes through it.
func (l *Loop) AddNode(parent uint32, name string, start time.Time) uint32 {
	if l == nil {
		return 0
	}
	if parent == 0 {
		parent = rootSpanID
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended {
		return 0
	}
	if len(l.spans) >= l.t.maxSpans {
		l.dropped++
		return 0
	}
	// IDs are dense: node id sits at index id-1, so EndNode indexes
	// instead of searching.
	id := uint32(len(l.spans)) + 1
	l.spans = append(l.spans, SpanNode{
		ID: id, Parent: parent, Name: name, StartUnixNs: start.UnixNano(),
	})
	return id
}

// EndNode fixes node id's duration. A node closed after the loop ended
// is ignored: End has already published the tree to the flight log and
// the /tracez reservoir, which must not change under their readers.
func (l *Loop) EndNode(id uint32, d time.Duration) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	if !l.ended {
		l.spans[id-1].DurNs = int64(d)
	}
	l.mu.Unlock()
}

// Stats is End's verdict on one iteration.
type Stats struct {
	Latency  time.Duration
	Deadline time.Duration
	Slack    time.Duration // Deadline − Latency; 0 when no deadline
	Missed   bool
}

// End closes the iteration: fixes the root span, scores latency against
// the deadline, and fans the result out to the registry, the flight
// recorder, the health monitor, and the /tracez reservoir. Idempotent;
// a nil loop returns zero Stats.
func (l *Loop) End() Stats {
	if l == nil {
		return Stats{}
	}
	latency := time.Since(l.start)

	l.mu.Lock()
	if l.ended {
		l.mu.Unlock()
		return Stats{Latency: latency, Deadline: l.deadline}
	}
	l.ended = true
	l.spans[0].DurNs = int64(latency)
	spans := l.spans
	dropped := l.dropped
	l.mu.Unlock()

	st := Stats{Latency: latency, Deadline: l.deadline}
	if l.deadline > 0 {
		st.Slack = l.deadline - latency
		st.Missed = st.Slack < 0
	}

	t := l.t
	t.cur.CompareAndSwap(l, nil)
	t.loops.Add(1)
	if st.Missed {
		t.misses.Add(1)
	}

	if t.reg != nil {
		t.reg.Counter("slo_loops_total").Inc()
		if st.Missed {
			t.reg.Counter("slo_deadline_miss_total").Inc()
		}
		if dropped > 0 {
			t.reg.Counter("slo_spans_dropped_total").Add(int64(dropped))
		}
		t.reg.Histogram("slo_loop_latency_seconds", obs.LatencyBuckets).
			ObserveExemplar(latency.Seconds(), l.trace)
		if l.deadline > 0 {
			t.reg.Histogram("slo_loop_slack_seconds", SlackBuckets).
				ObserveExemplar(st.Slack.Seconds(), l.trace)
		}
	}

	phases := phaseTotals(spans)
	if t.reg != nil {
		for _, p := range phases {
			t.phaseHist(p.Name).ObserveExemplar(float64(p.Value)/1e9, l.trace)
		}
	}

	t.rec.RecordLoop(flight.LoopRecord{
		UnixNs:     l.start.UnixNano(),
		TraceID:    l.trace,
		Seq:        l.seq,
		Name:       spans[0].Name,
		DeadlineNs: int64(l.deadline),
		LatencyNs:  int64(latency),
		Missed:     st.Missed,
		Phases:     phases,
	})
	t.mon.ObserveLoop(latency, l.deadline, st.Missed, l.trace)

	if t.life.Stopped() {
		return st
	}
	t.res.offer(&Exemplar{
		Name:         spans[0].Name,
		TraceID:      l.trace,
		Seq:          l.seq,
		StartUnixNs:  l.start.UnixNano(),
		LatencyNs:    int64(latency),
		DeadlineNs:   int64(l.deadline),
		Missed:       st.Missed,
		DroppedSpans: dropped,
		Spans:        spans,
	})
	return st
}

// phaseHist returns (lazily creating) the per-phase latency histogram.
func (t *Tracer) phaseHist(phase string) *obs.Histogram {
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	h, ok := t.phaseHists[phase]
	if !ok {
		h = t.reg.Histogram("slo_phase_"+phase+"_seconds", obs.LatencyBuckets)
		t.phaseHists[phase] = h
	}
	return h
}

// phaseTotals sums top-level phase durations by name, in first-
// appearance order — the loop's critical-path breakdown.
func phaseTotals(spans []SpanNode) []flight.AuxCount {
	var out []flight.AuxCount
	for _, sp := range spans {
		if sp.Parent != rootSpanID {
			continue
		}
		found := false
		for i := range out {
			if out[i].Name == sp.Name {
				out[i].Value += sp.DurNs
				found = true
				break
			}
		}
		if !found {
			out = append(out, flight.AuxCount{Name: sp.Name, Value: sp.DurNs})
		}
	}
	return out
}
