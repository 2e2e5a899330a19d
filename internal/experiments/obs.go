package experiments

import (
	"sync/atomic"

	"press/internal/control"
	"press/internal/mimo"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// currentScope is the ambient telemetry scope for harnesses that are
// not handed one explicitly. The one-shot CLIs adopt their flag-built
// process-wide stack as a single scope; session-oriented callers (the
// concurrent experiment, the future pressd daemon) pass per-session
// scopes through scenario parameters instead and leave this alone.
var currentScope atomic.Pointer[scope.Scope]

// SetScope installs the ambient telemetry scope for every harness in
// this package: scenario Builds attach its registry, health monitor,
// flight recorder, and phase collector to the links and environments
// they create, and search call sites wrap their searchers with
// control.InstrumentScope. Pass nil to clear.
//
// An ambient scope (rather than per-harness parameters) keeps the
// dozens of Run* signatures stable; harnesses that need per-session
// telemetry take an explicit *scope.Scope via their scenario instead.
func SetScope(s *scope.Scope) { currentScope.Store(s) }

// CurrentScope returns the ambient scope, nil when telemetry is off
// (every accessor on a nil scope is a valid disabled sink).
func CurrentScope() *scope.Scope { return currentScope.Load() }

// instrument wraps s with the ambient scope's observer, health monitor,
// flight recorder, and work-accounting collector; with all of them off
// it returns s unchanged.
func instrument(s control.Searcher) control.Searcher {
	return control.InstrumentScope(s, CurrentScope())
}

// condProfile returns ch's per-subcarrier condition-number profile (dB),
// computed under the ambient scope's solve phase with its solve and
// flop counts, and fans it out to the scope's health monitor and, as its
// median, the flight log.
func condProfile(ch *mimo.Channel) []float64 {
	sc := CurrentScope()
	sp := sc.Start(prof.PhaseSolve)
	cond := ch.CondProfileDB()
	sp.Add(prof.AuxSolves, int64(len(ch.Matrices)))
	sp.Add(prof.AuxFlops, ch.CondFlops())
	sp.End()
	sc.ObserveCondProfile(cond)
	return cond
}
