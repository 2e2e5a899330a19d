// Package scope makes telemetry a per-session object. A Scope bundles
// everything PRs 1–6 built process-wide — metrics registry, sample
// recorder, channel-health monitor, flight recorder, and phase-cost
// accounting — behind one constructor, so a multi-room service can
// observe, alert on, record, and cost-attribute thousands of concurrent
// room sessions independently.
//
// Scoped metrics roll up hierarchically: a scope's registry is a child
// of the process registry (obs.NewRegistryWithParent), so every write
// through a scope also lands in the process-wide totals, and the
// process /metrics exposition stays the roll-up of all sessions.
// Per-session expositions (with a `session` label) are served by the
// routes Set.RegisterRoutes adds to the telemetry server.
//
// The disabled path keeps the repository's nil-safe convention: every
// accessor on a nil *Scope returns the nil form of its component, so
// producer code holds one scope pointer unconditionally and pays a
// pointer check when telemetry is off (bench-enforced at 0 allocs/op).
package scope

import (
	"fmt"
	"sync"
	"time"

	"press/internal/obs"
	"press/internal/obs/export"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/prof"
	"press/internal/obs/slo"
	"press/internal/obs/tsdb"
	"press/internal/stats"
)

// Config selects which telemetry components Open creates for a scope.
// The zero value creates just the child registry — the cheapest useful
// scope (counters/gauges/spans with roll-up).
type Config struct {
	// SampleInterval > 0 runs an obs.Recorder over the scope's registry
	// at that cadence (the per-session /events?session= time series).
	SampleInterval time.Duration
	// SampleCapacity is the recorder's ring size (≤ 0: recorder default).
	SampleCapacity int

	// Health enables the channel-health monitor; HealthRules (may be
	// empty) are its alert rules, HealthInterval its KPI cadence (≤ 0:
	// health default). Rules imply Health.
	Health         bool
	HealthRules    []health.Rule
	HealthInterval time.Duration

	// FlightDir, when non-empty, opens a per-session flight recorder in
	// that directory (the caller picks the layout — typically
	// <shared-flight-root>/<run-id>). FlightSegmentMB ≤ 0 takes the
	// flight default.
	FlightDir       string
	FlightSegmentMB int

	// PhaseAccounting creates a per-session prof.Collector so phase
	// costs are attributed to the session that spent them.
	PhaseAccounting bool

	// LoopTracing creates a per-session slo.Tracer scoring control-loop
	// iterations against LoopDeadline (the session's coherence budget;
	// 0 = trace without a deadline). A non-zero LoopDeadline implies
	// LoopTracing.
	LoopTracing  bool
	LoopDeadline time.Duration

	// Logger, when set, is shared into the scope (scopes do not own
	// loggers; log records carry the session via their fields).
	Logger *obs.Logger
}

// Scope is one session's telemetry: registry, optional sample recorder,
// health monitor, flight recorder, and phase-cost collector. All
// methods are safe on a nil scope.
type Scope struct {
	id  string
	reg *obs.Registry
	log *obs.Logger
	rec *obs.Recorder
	mon *health.Monitor
	fl  *flight.Recorder
	pc  *prof.Collector
	tr  *slo.Tracer
	srv *obs.Server
	exp *export.Exporter
	ts  *tsdb.Store

	// owned components were created by Open and are stopped by Close;
	// adopted ones (Adopt) belong to a CLI that will stop them itself.
	owned bool

	closeOnce sync.Once
	closeErr  error
}

// New builds an owned scope parented on parent (which may be nil: the
// scope then observes standalone, without roll-up). The id names the
// session everywhere it surfaces: the `session` metric label, the
// /sessions routes, SSE filtering, and flight-manifest tags.
func New(id string, parent *obs.Registry, cfg Config) (*Scope, error) {
	s := &Scope{
		id:    id,
		reg:   obs.NewRegistryWithParent(parent),
		log:   cfg.Logger,
		owned: true,
	}
	if cfg.SampleInterval > 0 {
		s.rec = obs.NewRecorder(s.reg, cfg.SampleInterval, cfg.SampleCapacity)
		s.rec.Start()
	}
	if cfg.Health || len(cfg.HealthRules) > 0 {
		s.mon = health.NewMonitor(s.reg, cfg.HealthRules, cfg.HealthInterval, 0)
		// Started by the caller (Set.Open wires Notify first) via start().
	}
	if cfg.FlightDir != "" {
		rec, err := flight.Open(cfg.FlightDir, cfg.FlightSegmentMB)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("scope %s: %w", id, err)
		}
		s.fl = rec
	}
	if cfg.PhaseAccounting {
		s.pc = prof.NewCollector()
	}
	if cfg.LoopTracing || cfg.LoopDeadline > 0 {
		s.tr = slo.NewTracer(s.reg, slo.Config{
			Deadline: cfg.LoopDeadline,
			Flight:   s.fl,
			Health:   s.mon,
		})
	}
	return s, nil
}

// start launches the deferred-start components (the health monitor,
// whose Notify hook must be set before its first sample).
func (s *Scope) start() {
	if s == nil {
		return
	}
	s.mon.Start()
}

// Adopt wraps already-running, externally owned telemetry components as
// a scope (CLI.Scope does the same for the flag-built process stack).
// Closing an adopted scope stops nothing: the components' owner does.
func Adopt(id string, reg *obs.Registry, log *obs.Logger, mon *health.Monitor, fl *flight.Recorder, pc *prof.Collector) *Scope {
	return &Scope{id: id, reg: reg, log: log, mon: mon, fl: fl, pc: pc}
}

// WithTracer attaches a control-loop deadline tracer to the scope (the
// adopted form; owned scopes get one via Config.LoopTracing). Returns
// s; a no-op on a nil scope.
func (s *Scope) WithTracer(t *slo.Tracer) *Scope {
	if s != nil {
		s.tr = t
	}
	return s
}

// Tracer returns the scope's control-loop deadline tracer (nil is valid
// and disabled).
func (s *Scope) Tracer() *slo.Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Exporter returns the push exporter behind the scope's stack, or nil
// when exporting is off (or on a nil scope).
func (s *Scope) Exporter() *export.Exporter {
	if s == nil {
		return nil
	}
	return s.exp
}

// TSDB returns the metrics-history store behind the scope's stack, or
// nil when durable history is off (or on a nil scope).
func (s *Scope) TSDB() *tsdb.Store {
	if s == nil {
		return nil
	}
	return s.ts
}

// WithServer records the live telemetry server this scope's stack
// serves on, so harnesses holding the scope can expose routes there
// (RunConcurrent registers its ScopeSet's /sessions routes on it).
// Returns s; a no-op on a nil scope.
func (s *Scope) WithServer(srv *obs.Server) *Scope {
	if s != nil {
		s.srv = srv
	}
	return s
}

// Server returns the live telemetry server behind the scope's stack,
// or nil when none is serving (or on a nil scope).
func (s *Scope) Server() *obs.Server {
	if s == nil {
		return nil
	}
	return s.srv
}

// ID returns the session ID ("" on a nil scope).
func (s *Scope) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Registry returns the scope's metrics registry (nil on a nil scope —
// itself a valid, disabled registry).
func (s *Scope) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Logger returns the scope's logger (nil is a valid, disabled logger).
func (s *Scope) Logger() *obs.Logger {
	if s == nil {
		return nil
	}
	return s.log
}

// Recorder returns the scope's sample recorder, nil when sampling is
// off.
func (s *Scope) Recorder() *obs.Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Health returns the scope's channel-health monitor (nil is valid and
// disabled).
func (s *Scope) Health() *health.Monitor {
	if s == nil {
		return nil
	}
	return s.mon
}

// Flight returns the scope's flight recorder (nil is valid and
// disabled).
func (s *Scope) Flight() *flight.Recorder {
	if s == nil {
		return nil
	}
	return s.fl
}

// Prof returns the scope's phase-cost collector (nil is valid and
// disabled).
func (s *Scope) Prof() *prof.Collector {
	if s == nil {
		return nil
	}
	return s.pc
}

// CSIHook returns the per-measurement CSI callback feeding the scope's
// health monitor and flight recorder — what radio.Link.AttachScope
// caches for its measurements. Nil when the scope observes neither, so
// measurement stays zero-overhead.
func (s *Scope) CSIHook() func(snrDB []float64) {
	if s == nil {
		return nil
	}
	switch {
	case s.mon != nil && s.fl != nil:
		mon, fl := s.mon, s.fl
		return func(snrDB []float64) {
			mon.ObserveSNR(snrDB)
			fl.RecordCSI(snrDB)
		}
	case s.mon != nil:
		return s.mon.ObserveSNR
	case s.fl != nil:
		return s.fl.RecordCSI
	}
	return nil
}

// ObserveCondProfile fans a per-subcarrier MIMO condition-number
// profile (dB) out to the scope's health monitor and, as its median,
// the flight log. No-op on a nil scope or empty profile.
func (s *Scope) ObserveCondProfile(condDB []float64) {
	if s == nil {
		return
	}
	s.mon.ObserveCondProfile(condDB)
	if s.fl != nil && len(condDB) > 0 {
		s.fl.RecordKPI(flight.KPICondDBMedian, stats.Median(condDB))
	}
}

// RecordManifest tags m with the scope's session ID and writes it to
// the scope's flight log. No-op without a flight recorder.
func (s *Scope) RecordManifest(m *flight.Manifest) {
	if s == nil || s.fl == nil || m == nil {
		return
	}
	if s.id != "" {
		m.SetSession(s.id)
	}
	s.fl.RecordManifest(m)
}

// Close stops and releases the owned components — recorder, monitor,
// loop tracer, flight log — through their uniform obs.Lifecycle-backed
// Stop contract. Adopted components are left running for their owner.
// Idempotent; safe on a nil scope.
func (s *Scope) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		if !s.owned {
			return
		}
		if s.rec != nil {
			s.rec.Stop()
		}
		s.mon.Stop()
		s.tr.Stop()
		if s.fl != nil {
			s.closeErr = s.fl.Close()
		}
	})
	return s.closeErr
}
