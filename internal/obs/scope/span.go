package scope

import (
	"time"

	"press/internal/obs/prof"
	"press/internal/obs/slo"
)

// Span times one interval of work and, when it ends, feeds the scope
// sinks it was opened on, and no others:
//
//   - Start(p): phase accounting — ns, calls, root-phase alloc bytes,
//     and aux counters through Add.
//   - Time(name): the registry's span summary for name and its
//     trace-log event.
//   - Node(name): a node under the root of the scope tracer's in-flight
//     loop; Child(name) opens a node under the span's own node.
//
// The scope openers start a span on one sink; the Span methods of the
// same names add that sink to an open span, so one span covers an
// interval that several sinks observe:
//
//	sp := sc.Start(prof.PhaseActuate).Node("actuate")
//	defer sp.End()
//	ack := sp.Child("ack")
//	...
//	ack.End()
//
// Spans are values: opening and ending one allocates nothing, and on a
// nil scope every method returns after one pointer check.
type Span struct {
	sc    *Scope // nil for an inert or ended span
	start time.Time
	name  string // registry span name; "" records none
	loop  *slo.Loop
	node  uint32 // loop node ID; 0 records none

	phased     bool // phase accounting on phase
	phase      prof.Phase
	bytesOK    bool
	startBytes uint64
}

// The openers and End test the scope inline, so a nil scope costs one
// pointer check at the call site.

// Start opens a span accounting phase p on the scope's collector.
func (s *Scope) Start(p prof.Phase) Span {
	if s == nil {
		return Span{}
	}
	return Span{sc: s}.Start(p)
}

// Time opens a span recorded under name in the scope's registry.
func (s *Scope) Time(name string) Span {
	if s == nil {
		return Span{}
	}
	return Span{sc: s}.Time(name)
}

// Node opens a span as a node named name under the root of the scope
// tracer's in-flight loop.
func (s *Scope) Node(name string) Span {
	if s == nil {
		return Span{}
	}
	return Span{sc: s}.Node(name)
}

// begin stamps the span's start the first time a sink takes it.
func (sp *Span) begin() {
	if sp.start.IsZero() {
		sp.start = time.Now()
	}
}

// Start adds phase accounting on p to the span. Root phases also read
// the allocation counter, so their alloc bytes cover the span.
func (sp Span) Start(p prof.Phase) Span {
	if sp.sc == nil || sp.sc.pc == nil {
		return sp
	}
	sp.begin()
	sp.phased, sp.phase = true, p
	sp.startBytes, sp.bytesOK = sp.sc.pc.Begin(p)
	return sp
}

// Time adds the registry span summary name to the span.
func (sp Span) Time(name string) Span {
	if sp.sc == nil || sp.sc.reg == nil {
		return sp
	}
	sp.begin()
	sp.name = name
	return sp
}

// Node adds the span to the scope tracer's in-flight loop, as a node
// named name under the loop's root. Without a loop in flight it adds
// nothing.
func (sp Span) Node(name string) Span {
	if sp.sc == nil {
		return sp
	}
	return sp.nodeUnder(sp.sc.tr.Current(), 0, name)
}

// Child opens a new span, started now, as a node named name under the
// span's own loop node. It inherits no other sink; add them with Start
// or Time. Under a span with no node it records nothing until a sink is
// added.
func (sp *Span) Child(name string) Span {
	if sp.loop == nil {
		return Span{sc: sp.sc}
	}
	return Span{sc: sp.sc}.nodeUnder(sp.loop, sp.node, name)
}

func (sp Span) nodeUnder(l *slo.Loop, parent uint32, name string) Span {
	if l == nil {
		return sp
	}
	sp.begin()
	if id := l.AddNode(parent, name, sp.start); id != 0 {
		sp.loop, sp.node = l, id
	}
	return sp
}

// Add folds n into aux counter slot of the span's phase; a no-op when
// the span accounts no phase.
func (sp *Span) Add(slot int, n int64) {
	if sp.phased {
		sp.sc.pc.Add(sp.phase, slot, n)
	}
}

// End closes the span, feeds its sinks, and returns its duration. End
// is idempotent: later calls return 0 and record nothing. An inert span
// returns 0.
func (sp *Span) End() time.Duration {
	if sp.sc == nil {
		return 0
	}
	return sp.end()
}

func (sp *Span) end() time.Duration {
	s := *sp
	*sp = Span{}
	if s.start.IsZero() {
		return 0
	}
	d := time.Since(s.start)
	if s.phased {
		s.sc.pc.Record(s.phase, d, s.startBytes, s.bytesOK)
	}
	if s.name != "" {
		s.sc.reg.ObserveSpan(s.name, s.start, d)
	}
	s.loop.EndNode(s.node, d)
	return d
}
