// Package press is a programmable radio environment for smart spaces — a
// faithful, simulation-backed reproduction of "Programmable Radio
// Environments for Smart Spaces" (Welkie, Shangguan, Gummeson, Hu,
// Jamieson; HotNets 2017).
//
// PRESS embeds arrays of low-cost, electronically switched antenna
// elements in the walls of a building and reconfigures indoor multipath
// propagation itself, rather than the endpoints: shifting frequency
// nulls to enhance individual links, improving large-MIMO channel
// conditioning, and partitioning spectrum between neighbouring networks.
//
// The package re-exports the library's public surface:
//
//   - Space: a PRESS-instrumented room — environment, element array, and
//     the links operating inside it, with measure/optimize/apply.
//   - Environment, Node, Blocker: the multipath world (image-method ray
//     tracing, scatterers, Doppler).
//   - Element, Array, Config, State: the switched reflector substrate of
//     the paper's Figure 3.
//   - Radio, Link, MIMOLink: the OFDM measurement pipeline (training-
//     based CSI estimation, per-subcarrier SNR, 2×2 channel matrices).
//   - Objective and Searcher: the control plane's optimization loop with
//     coherence-time budgets.
//   - Agent, Controller: the wire protocol between a controller and the
//     wall-embedded element agents.
//
// A minimal session:
//
//	env := press.NewEnvironment(12, 9, 3)
//	arr := press.NewArray(
//	    press.NewParabolicElement(press.V(6, 3.2, 1.5), press.V(7.3, 4.7, 1.3)),
//	)
//	space, _ := press.NewSpace(env, arr, 42)
//	space.AddLink("ap-client", tx, rx, press.WiFi20())
//	out, _ := space.Optimize(
//	    []press.Goal{{Link: "ap-client", Objective: press.MaxMinSNR{}}},
//	    press.OptimizeOptions{},
//	)
//
// See examples/ for complete programs and internal/experiments for the
// harnesses that regenerate every figure of the paper.
package press

import (
	"io"
	"net"
	"time"

	"press/internal/cmat"
	"press/internal/control"
	"press/internal/controlplane"
	"press/internal/core"
	"press/internal/element"
	"press/internal/geom"
	"press/internal/mimo"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// Geometry.
type (
	// Vec is a 3-D point or direction in metres.
	Vec = geom.Vec
	// Room is an axis-aligned room.
	Room = geom.Room
	// Blocker is a box obstacle attenuating paths through it.
	Blocker = geom.Blocker
)

// V builds a Vec.
func V(x, y, z float64) Vec { return geom.V(x, y, z) }

// NewBlocker builds a blocker from two opposite corners and a penetration
// loss in dB.
func NewBlocker(a, b Vec, attenuationDB float64) Blocker {
	return geom.NewBlocker(a, b, attenuationDB)
}

// Propagation.
type (
	// Environment is the radio environment PRESS does not control: room,
	// wall materials, blockers, ambient scatterers.
	Environment = propagation.Environment
	// Node is a radio endpoint's antenna: position, pattern, velocity.
	Node = propagation.Node
	// Scatterer is a point scatterer contributing one extra path.
	Scatterer = propagation.Scatterer
	// Path is one propagation path: complex gain, delay, angles, Doppler.
	Path = propagation.Path
	// Material is a wall surface description.
	Material = propagation.Material
)

// NewEnvironment returns a room of the given dimensions (metres) with
// default wall materials and second-order ray tracing.
func NewEnvironment(x, y, z float64) *Environment {
	return propagation.NewEnvironment(x, y, z)
}

// TracePaths generates the multipath set between two nodes at wavelength
// lambdaM.
func TracePaths(env *Environment, tx, rx Node, lambdaM float64) []Path {
	return propagation.TracePaths(env, tx, rx, lambdaM)
}

// Antennas.
type (
	// Pattern is an antenna gain pattern.
	Pattern = rfphys.Pattern
	// Isotropic, Omni, Parabolic, LogPeriodic are the built-in patterns.
	Isotropic   = rfphys.Isotropic
	Omni        = rfphys.Omni
	Parabolic   = rfphys.Parabolic
	LogPeriodic = rfphys.LogPeriodic
)

// Wavelength returns the free-space wavelength of a carrier frequency.
func Wavelength(freqHz float64) float64 { return rfphys.Wavelength(freqHz) }

// DBToLinear converts a power ratio in dB to linear.
func DBToLinear(db float64) float64 { return rfphys.DBToLinear(db) }

// LinearToDB converts a linear power ratio to dB.
func LinearToDB(lin float64) float64 { return rfphys.LinearToDB(lin) }

// DBmToWatts converts dBm to watts.
func DBmToWatts(dbm float64) float64 { return rfphys.DBmToWatts(dbm) }

// ThermalNoiseWatts returns the receiver noise floor k·T·B scaled by a
// noise figure in dB.
func ThermalNoiseWatts(bwHz, noiseFigureDB float64) float64 {
	return rfphys.ThermalNoiseWatts(bwHz, noiseFigureDB)
}

// CoherenceTime returns the channel coherence time in seconds for a
// maximum Doppler shift (Tc = 9/(16π·fd)).
func CoherenceTime(dopplerHz float64) float64 { return rfphys.CoherenceTime(dopplerHz) }

// DefaultCarrierHz is Wi-Fi channel 11 (2.462 GHz), the prototype's
// carrier — the default frequency for the coherence-budget math in the
// CLIs and examples.
const DefaultCarrierHz = 2.462e9

// Elements.
type (
	// Element is one PRESS element (Figure 3 of the paper).
	Element = element.Element
	// Array is an ordered, jointly controlled set of elements.
	Array = element.Array
	// Config selects one switch state per element.
	Config = element.Config
	// State is one selectable reflection state.
	State = element.State
	// PlacementSpec generates element positions around a link.
	PlacementSpec = element.PlacementSpec
)

// Element constructors and state banks.
var (
	// DefaultPlacement is the paper's 1–2 m placement grid.
	DefaultPlacement = element.DefaultPlacement
)

// NewArray builds an array over elements.
func NewArray(elems ...*Element) *Array { return element.NewArray(elems...) }

// NewParabolicElement builds the paper's prototype element: a 14 dBi grid
// parabolic aimed at `aim` behind the SP4T stub bank.
func NewParabolicElement(pos, aim Vec) *Element { return element.NewParabolicElement(pos, aim) }

// NewOmniElement builds the omnidirectional element variant.
func NewOmniElement(pos Vec) *Element { return element.NewOmniElement(pos) }

// NewActiveElement builds an active re-radiating element with the given
// gain — the design point line-of-sight links need (§2, §3).
func NewActiveElement(pos Vec, gainDB float64) *Element {
	return element.NewActiveElement(pos, gainDB)
}

// SP4TStates returns the paper's prototype switch bank: phases 0, π/2, π
// plus the absorptive load.
func SP4TStates() []State { return element.SP4TStates() }

// FourPhaseStates returns the §3.2.2 bank: four phases, no absorber.
func FourPhaseStates() []State { return element.FourPhaseStates() }

// NPhaseStates returns n evenly spaced phases, optionally with "off".
func NPhaseStates(n int, includeOff bool) []State { return element.NPhaseStates(n, includeOff) }

// ParseState parses the paper's notation ("0.5π", "T") into a State.
func ParseState(s string) (State, error) { return element.ParseState(s) }

// Element failures (§2 operational challenges).
type (
	// Fault is one element's failure mode.
	Fault = element.Fault
	// Faults maps element index → failure.
	Faults = element.Faults
	// FaultKind classifies failures.
	FaultKind = element.FaultKind
)

// Failure kinds: a switch jammed in one state, or a dead element.
const (
	StuckAt = element.StuckAt
	Dead    = element.Dead
)

// Modulation is a payload constellation for BER experiments.
type Modulation = ofdm.Modulation

// Supported constellations.
const (
	BPSK  = ofdm.BPSK
	QPSK  = ofdm.QPSK
	QAM16 = ofdm.QAM16
	QAM64 = ofdm.QAM64
)

// OFDM and measurement.
type (
	// Grid is an OFDM subcarrier layout.
	Grid = ofdm.Grid
	// CSI is a measured channel estimate with per-subcarrier SNR.
	CSI = ofdm.CSI
	// Radio is one simulated SDR endpoint.
	Radio = radio.Radio
	// Link is a measurable TX→RX link through an environment and array.
	Link = radio.Link
	// MIMOLink is the multi-antenna variant.
	MIMOLink = radio.MIMOLink
	// Measurement is one configuration's CSI within a sweep.
	Measurement = radio.Measurement
	// Timing models measurement and actuation latency.
	Timing = radio.Timing
	// Channel is a frequency-selective MIMO channel.
	Channel = mimo.Channel
)

// PrototypeTiming reproduces the paper's ~5 s / 64-configuration testbed.
var PrototypeTiming = radio.PrototypeTiming

// WiFi20 returns the paper's 64-subcarrier/20 MHz Wi-Fi-like grid on
// channel 11 (2.462 GHz).
func WiFi20() Grid { return ofdm.WiFi20() }

// USRP102 returns the §3.2.2 102-subcarrier USRP grid.
func USRP102() Grid { return ofdm.USRP102() }

// NewLink wires a measurable link; see radio.NewLink.
func NewLink(env *Environment, tx, rx *Radio, grid Grid, arr *Array, seed uint64) (*Link, error) {
	return radio.NewLink(env, tx, rx, grid, arr, seed)
}

// NewMIMOLink wires a multi-antenna link; see radio.NewMIMOLink.
func NewMIMOLink(env *Environment, txAnts, rxAnts []Node, grid Grid, arr *Array, seed uint64) (*MIMOLink, error) {
	return radio.NewMIMOLink(env, txAnts, rxAnts, grid, arr, seed)
}

// ThroughputMbps estimates MCS-ladder throughput for a per-subcarrier SNR
// vector on a grid.
func ThroughputMbps(g Grid, snrDB []float64) float64 { return ofdm.ThroughputMbps(g, snrDB) }

// Matrix aliases the dense complex matrix used by the MIMO analysis.
type Matrix = cmat.Matrix

// CondNumberDB returns a channel matrix's condition number in dB.
func CondNumberDB(m *Matrix) float64 { return mimo.CondNumberDB(m) }

// CapacityBpsHz returns the equal-power MIMO Shannon capacity of one
// channel matrix at a linear SNR.
func CapacityBpsHz(m *Matrix, snrLinear float64) float64 { return mimo.CapacityBpsHz(m, snrLinear) }

// ZFSumRateBpsHz returns the zero-forcing sum rate of one channel matrix
// at a linear SNR — the conventional MIMO receiver whose throughput
// collapses on ill-conditioned channels (§1).
func ZFSumRateBpsHz(m *Matrix, snrLinear float64) float64 { return mimo.ZFSumRateBpsHz(m, snrLinear) }

// Control.
type (
	// Objective scores a measured CSI (higher is better).
	Objective = control.Objective
	// Searcher explores the configuration space under a budget.
	Searcher = control.Searcher
	// Result is a search outcome.
	Result = control.Result
	// EvalFunc measures one configuration.
	EvalFunc = control.EvalFunc

	// Built-in objectives.
	MaxMinSNR        = control.MaxMinSNR
	MaxMeanSNR       = control.MaxMeanSNR
	Flatness         = control.Flatness
	Throughput       = control.Throughput
	BoostSubcarrier  = control.BoostSubcarrier
	HalfBandContrast = control.HalfBandContrast

	// Built-in searchers.
	Exhaustive   = control.Exhaustive
	Greedy       = control.Greedy
	HillClimb    = control.HillClimb
	Anneal       = control.Anneal
	Genetic      = control.Genetic
	RandomWalk   = control.Random
	Hierarchical = control.Hierarchical

	// Continuous-phase control (§4.1 "continuously-variable phase
	// shifting hardware").
	ContinuousConfig   = element.ContinuousConfig
	ContinuousEvalFunc = control.ContinuousEvalFunc
	ContinuousResult   = control.ContinuousResult
	SPSA               = control.SPSA
)

// Off is the continuous-phase sentinel terminating an element.
var Off = element.Off

// ErrBudgetExhausted reports a search stopped by its measurement budget.
var ErrBudgetExhausted = control.ErrBudgetExhausted

// CoherenceBudget converts a coherence time and per-measurement cost into
// a measurement budget (§2).
func CoherenceBudget(coherence time.Duration, timing Timing) int {
	return control.CoherenceBudget(coherence, timing)
}

// CoherenceBudgetAtSpeed is CoherenceBudget for an endpoint speed in mph.
func CoherenceBudgetAtSpeed(speedMph, fcHz float64, timing Timing) int {
	return control.CoherenceBudgetAtSpeed(speedMph, fcHz, timing)
}

// CoherenceTimeAtSpeed returns the channel coherence time — the per-loop
// control deadline of §2 — for an endpoint speed in mph at carrier fcHz
// (0 = effectively static, no deadline).
func CoherenceTimeAtSpeed(speedMph, fcHz float64) time.Duration {
	return control.CoherenceTimeAtSpeed(speedMph, fcHz)
}

// System orchestration.
type (
	// Space is a PRESS-instrumented smart space.
	Space = core.Space
	// Goal binds a link to an objective for (joint) optimization.
	Goal = core.Goal
	// OptimizeOptions configures Space.Optimize.
	OptimizeOptions = core.OptimizeOptions
	// Outcome reports an optimization run.
	Outcome = core.Outcome
)

// NewSpace builds a space over an environment and array.
func NewSpace(env *Environment, arr *Array, seed uint64) (*Space, error) {
	return core.NewSpace(env, arr, seed)
}

// Control plane.
type (
	// Agent is the element-side protocol endpoint.
	Agent = controlplane.Agent
	// Controller is the controller-side protocol endpoint.
	Controller = controlplane.Controller
	// Conn is a message-oriented control-plane connection.
	Conn = controlplane.Conn
	// LossyConfig parameterizes the simulated lossy control channel.
	LossyConfig = controlplane.LossyConfig
)

// NewAgent builds an element agent over an array.
func NewAgent(id uint32, arr *Array) *Agent { return controlplane.NewAgent(id, arr) }

// NewController wraps a control-plane connection.
func NewController(conn Conn) *Controller { return controlplane.NewController(conn) }

// MultiController drives several element agents (wall segments) as one
// logical array.
type MultiController = controlplane.MultiController

// NewMultiController composes handshaked controllers into one logical
// array controller.
func NewMultiController(ctrls ...*Controller) (*MultiController, error) {
	return controlplane.NewMultiController(ctrls...)
}

// NewPacketConn adapts a net.PacketConn (UDP) into a control-plane
// connection toward one agent.
func NewPacketConn(pc net.PacketConn, peer net.Addr) Conn {
	return controlplane.NewPacketConn(pc, peer)
}

// SINRdB computes per-subcarrier signal-to-interference-plus-noise for a
// link with co-channel interferers measured at the same receiver.
func SINRdB(signal *CSI, interferers []*CSI) ([]float64, error) {
	return ofdm.SINRdB(signal, interferers)
}

// NewLossyPipe returns both ends of a simulated lossy control channel.
func NewLossyPipe(cfg LossyConfig) (Conn, Conn) { return controlplane.NewLossyPipe(cfg) }

// NewStreamConn adapts a net.Conn (TCP, unix socket, net.Pipe) into a
// control-plane connection.
func NewStreamConn(c net.Conn) Conn { return controlplane.NewStreamConn(c) }

// Telemetry. Every instrumented type in the library (Link, MIMOLink,
// Environment, Controller, Agent) carries an optional *Registry; a nil
// registry is the zero-cost disabled default.
type (
	// Registry is a concurrency-safe registry of counters, gauges, and
	// histograms with JSON and Prometheus-text exposition.
	Registry = obs.Registry
	// Logger is the structured leveled key-value logger.
	Logger = obs.Logger
	// LogLevel is a logger severity threshold.
	LogLevel = obs.Level
	// LogFormat selects the logger's wire format.
	LogFormat = obs.Format
	// MetricsSnapshot is a point-in-time export of a registry.
	MetricsSnapshot = obs.Snapshot
	// TelemetryCLI is the telemetry flag set every binary exposes
	// (-telemetry, -telemetry-addr, -alert-rules, -flight-dir,
	// -runtime-metrics-interval, -phase-accounting, -loop-trace,
	// -export-url, -tsdb-dir, ...) and the process stack behind it:
	// Register, Start, Scope(id) for the producers, then Finish.
	TelemetryCLI = scope.CLI
	// LoopTracer assembles per-iteration control-loop span trees, scores
	// them against a coherence deadline, and tail-samples exemplars for
	// /tracez. A nil tracer is the zero-cost disabled default.
	LoopTracer = slo.Tracer
	// LoopTracerConfig parameterizes NewLoopTracer.
	LoopTracerConfig = slo.Config
	// TracedLoop is one control-loop iteration under construction.
	TracedLoop = slo.Loop
	// LoopStats is a traced iteration's verdict: latency, slack, missed.
	LoopStats = slo.Stats
	// ProfCollector accumulates phase-scoped work accounting (wall time,
	// calls, bytes, domain counters per named phase). A nil collector is
	// the zero-cost disabled default.
	ProfCollector = prof.Collector
	// FlightRecorder appends a durable, crash-safe run log (manifest,
	// actuations, CSI/KPI samples, alerts, search decisions) to
	// size-rotated CRC-framed segment files. A nil recorder discards
	// everything at zero cost.
	FlightRecorder = flight.Recorder
	// FlightManifest identifies one recorded run: seeds, parameters,
	// and build provenance.
	FlightManifest = flight.Manifest
	// HealthMonitor computes channel-health KPIs (null depth, MIMO
	// condition number, search regret, control staleness) as bounded time
	// series and evaluates alert rules over them.
	HealthMonitor = health.Monitor
	// HealthRule is one parsed alert rule over a channel-health KPI.
	HealthRule = health.Rule
	// AlertEvent is one alert-rule state transition
	// (inactive→pending→firing→resolved).
	AlertEvent = health.Event
	// TelemetryServer serves a registry live over HTTP: /metrics,
	// /metrics.json, /healthz, /events (SSE), and /debug/pprof/*.
	TelemetryServer = obs.Server
	// TelemetryRecorder periodically samples a registry into a bounded
	// ring for the live /events stream.
	TelemetryRecorder = obs.Recorder
	// TelemetrySample is one sampled snapshot of counters and gauges.
	TelemetrySample = obs.Sample
	// TraceLog collects completed spans for Chrome trace-event export
	// (viewable at ui.perfetto.dev).
	TraceLog = obs.TraceLog
	// TelemetryScope bundles one session's registry, logger, health
	// monitor, flight recorder, and phase collector behind a single
	// nil-safe handle; scoped metrics roll up into the parent registry.
	TelemetryScope = scope.Scope
	// TelemetryScopeSet is a bounded process-level registry of live
	// session scopes with LRU eviction and /sessions HTTP routes.
	TelemetryScopeSet = scope.Set
	// TelemetryScopeConfig parameterizes NewTelemetryScope.
	TelemetryScopeConfig = scope.Config
)

// Logger severity levels and formats.
const (
	LevelDebug = obs.LevelDebug
	LevelInfo  = obs.LevelInfo
	LevelWarn  = obs.LevelWarn
	LevelError = obs.LevelError
	LevelOff   = obs.LevelOff

	Logfmt     = obs.Logfmt
	JSONFormat = obs.JSONFormat
)

// LatencyBuckets are histogram bounds suited to sub-second latencies.
var LatencyBuckets = obs.LatencyBuckets

// NewRegistry returns an empty live metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewLogger returns a structured logger writing records at or above
// level to w.
func NewLogger(w io.Writer, level LogLevel, format LogFormat) *Logger {
	return obs.NewLogger(w, level, format)
}

// NewTelemetryServer builds a live telemetry server over reg; rec may be
// nil to disable the /events stream. Call Start(addr), then Close.
func NewTelemetryServer(reg *Registry, rec *TelemetryRecorder) *TelemetryServer {
	return obs.NewServer(reg, rec)
}

// NewTelemetryRecorder samples reg every interval into a ring of the
// given capacity (zero values pick sensible defaults).
func NewTelemetryRecorder(reg *Registry, interval time.Duration, capacity int) *TelemetryRecorder {
	return obs.NewRecorder(reg, interval, capacity)
}

// NewTraceLog returns an empty span collector; attach it with
// Registry.SetTraceLog and export with WriteJSON.
func NewTraceLog() *TraceLog { return obs.NewTraceLog() }

// NewTraceID returns a process-unique nonzero trace ID for correlating
// controller and agent spans.
func NewTraceID() uint64 { return obs.NewTraceID() }

// InstrumentSearcherScope wraps a searcher with every sink a telemetry
// scope carries. A nil (or fully disabled) scope returns s unchanged.
func InstrumentSearcherScope(s Searcher, sc *TelemetryScope) Searcher {
	return control.InstrumentScope(s, sc)
}

// NewLoopTracer builds a control-loop deadline tracer recording into
// reg (nil = identity/reservoir bookkeeping only): per-iteration span
// trees, coherence-deadline verdicts, slack histograms, and the
// tail-sampling reservoir behind /tracez. A nil *LoopTracer is the
// zero-cost disabled default every call site tolerates.
func NewLoopTracer(reg *Registry, cfg LoopTracerConfig) *LoopTracer {
	return slo.NewTracer(reg, cfg)
}

// NewTelemetryScope creates an owned session scope: a child registry
// rolling up into parent plus whichever components cfg enables. Close
// releases them. See internal/obs/scope for the session model.
func NewTelemetryScope(id string, parent *Registry, cfg TelemetryScopeConfig) (*TelemetryScope, error) {
	return scope.New(id, parent, cfg)
}

// NewTelemetryScopeSet builds a bounded registry of session scopes
// parented on reg; maxScopes <= 0 picks the default cardinality budget.
func NewTelemetryScopeSet(reg *Registry, maxScopes int) *TelemetryScopeSet {
	return scope.NewSet(reg, maxScopes)
}

// NewFlightManifest starts a run manifest stamped with the current time
// and build provenance; see flight.NewManifest.
func NewFlightManifest(binary, scenario string, seed uint64) *FlightManifest {
	return flight.NewManifest(binary, scenario, seed)
}

// ParseAlertRules parses a ';'-separated -alert-rules list ("default"
// expands to the built-in set).
func ParseAlertRules(s string) ([]HealthRule, error) { return health.ParseRules(s) }

// NewHealthMonitor builds a channel-health monitor sampling KPIs every
// interval into series of the given capacity (zero values pick
// defaults); reg may be nil.
func NewHealthMonitor(reg *Registry, rules []HealthRule, interval time.Duration, capacity int) *HealthMonitor {
	return health.NewMonitor(reg, rules, interval, capacity)
}
