package scope

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"press/internal/obs"
	"press/internal/obs/export"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/perf"
	"press/internal/obs/prof"
	"press/internal/obs/slo"
	"press/internal/obs/tsdb"
)

// phaseFlushInterval is how often cumulative phase-cost snapshots are
// written to the flight log. Samples are cumulative, so a slow cadence
// costs only recency, never totals (Finish writes a final snapshot).
const phaseFlushInterval = 5 * time.Second

// CLI is the telemetry flag set every binary in this repository exposes
// and the process-wide stack behind it: registry, logger, live server,
// channel-health monitor, flight recorder, runtime sampler, phase-cost
// accounting, loop tracer, push exporter and metrics-history store.
// Usage:
//
//	var tele scope.CLI
//	tele.Register(fs)
//	// after fs.Parse:
//	if err := tele.Start(os.Stderr); err != nil { ... }
//	sc := tele.Scope("run")     // hand sc to the producers
//	... run ...
//	return tele.Finish(os.Stdout)
//
// With no flags set every component stays nil, and the scope's hooks
// stay at their zero-cost disabled default.
type CLI struct {
	// Telemetry is the metrics snapshot destination: a file path, or
	// "-" for the writer handed to Finish.
	Telemetry string
	// TelemetryFormat is "json" (indented Snapshot) or "prom".
	TelemetryFormat string
	// TelemetryAddr, when non-empty, serves live telemetry over HTTP on
	// this address (/metrics, /healthz, /events, /debug/pprof and every
	// component's route).
	TelemetryAddr string
	// SampleInterval is the /events recorder cadence (0 = obs default).
	SampleInterval time.Duration
	// Trace is the path of a Chrome trace-event JSON of all spans.
	Trace string
	// LogLevel is the structured log threshold (debug|info|warn|error|off).
	LogLevel string
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile, MemProfile string

	// AlertRules is the -alert-rules list (see health.ParseRules), or
	// "default". Empty disables alerting.
	AlertRules string
	// HealthInterval is the KPI cadence (0 = follow SampleInterval).
	HealthInterval time.Duration

	// FlightDir roots the run logs; each run gets a subdirectory named
	// by run ID. Empty disables recording.
	FlightDir string
	// FlightSegmentMB is the segment-file rotation threshold.
	FlightSegmentMB int

	// RuntimeMetricsInterval is the runtime/metrics polling period
	// (0 = sampler off).
	RuntimeMetricsInterval time.Duration
	// BenchBaselineDir is where /perfz looks for bench baselines.
	BenchBaselineDir string

	// PhaseAccounting enables the work-accounting collector explicitly
	// (implied by FlightDir or TelemetryAddr).
	PhaseAccounting bool
	// ProfileInterval is the continuous profiler's period (0 = off),
	// ProfileWindow each capture's length, ProfileTopN the /profz depth.
	ProfileInterval, ProfileWindow time.Duration
	ProfileTopN                    int

	// LoopTrace enables the loop tracer explicitly (implied by FlightDir
	// or TelemetryAddr). LoopDeadline is the coherence deadline each
	// iteration is scored against (0 = none).
	LoopTrace    bool
	LoopDeadline time.Duration

	// ExportURL is the push sink: http(s):// for a collector, anything
	// else for an NDJSON append file. Empty disables pushing.
	ExportURL string
	// ExportInterval is the collection cadence (0 = export default).
	ExportInterval time.Duration
	// ExportFormat is ndjson (default) or json.
	ExportFormat string

	// TSDBDir roots the metrics-history store. Empty disables it.
	TSDBDir string
	// TSDBRetention bounds the 1m tier's history; the raw and 10s tiers
	// keep min(default, this). 0 = default.
	TSDBRetention time.Duration

	started  bool
	reg      *obs.Registry
	log      *obs.Logger
	tracelog *obs.TraceLog
	rec      *obs.Recorder
	srv      *obs.Server
	cpuFile  *os.File
	mon      *health.Monitor
	fl       *flight.Recorder
	sampler  *perf.Sampler
	pc       *prof.Collector
	profiler *prof.Profiler
	flush    *obs.Lifecycle
	tr       *slo.Tracer
	exp      *export.Exporter // push exporter, or the store's local-only collector
	store    *tsdb.Store
}

// Register installs the telemetry flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Telemetry, "telemetry", "",
		`write a final metrics snapshot to this path ("-" = stdout)`)
	fs.StringVar(&c.TelemetryFormat, "telemetry-format", "json",
		"metrics snapshot format: json|prom")
	fs.StringVar(&c.TelemetryAddr, "telemetry-addr", "",
		"serve live telemetry over HTTP on this address (/metrics, /events, /debug/pprof)")
	fs.DurationVar(&c.SampleInterval, "sample-interval", obs.DefaultSampleInterval,
		"sampling period for the live /events stream")
	fs.StringVar(&c.Trace, "trace", "",
		"write a Chrome trace-event JSON of all spans to this file (view at ui.perfetto.dev)")
	fs.StringVar(&c.LogLevel, "log-level", "off",
		"structured log threshold on stderr: debug|info|warn|error|off")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&c.AlertRules, "alert-rules", "",
		`channel-health alert rules, ';'-separated ("default" = built-in set; e.g. "null_depth_db>25 for 3")`)
	fs.DurationVar(&c.HealthInterval, "health-interval", 0,
		"channel-health KPI sampling period (default: -sample-interval)")
	fs.StringVar(&c.FlightDir, "flight-dir", "",
		"record a durable flight log (run manifest, actuations, CSI/KPI samples, alerts, search decisions) under this directory")
	fs.IntVar(&c.FlightSegmentMB, "flight-segment-mb", flight.DefaultSegmentMB,
		"flight-log segment rotation threshold in MiB")
	fs.DurationVar(&c.RuntimeMetricsInterval, "runtime-metrics-interval", 0,
		"poll runtime/metrics (GC pauses, sched latencies, heap, goroutines) into the registry at this period (0 = off)")
	fs.StringVar(&c.BenchBaselineDir, "bench-baselines", ".",
		"directory /perfz scans for bench/BENCH_*.json and bench/history.ndjson baselines")
	fs.BoolVar(&c.PhaseAccounting, "phase-accounting", false,
		"accumulate per-phase work counters (ns, calls, domain units); implied by -flight-dir or -telemetry-addr")
	fs.DurationVar(&c.ProfileInterval, "profile-interval", 0,
		"capture a windowed CPU profile and delta heap profile at this period into the /profz hotspot table (0 = off)")
	fs.DurationVar(&c.ProfileWindow, "profile-window", prof.DefaultProfileWindow,
		"duration of each continuous-profiler CPU capture window")
	fs.IntVar(&c.ProfileTopN, "profile-top", prof.DefaultTopN,
		"functions kept in the /profz hotspot table")
	fs.BoolVar(&c.LoopTrace, "loop-trace", false,
		"trace control-loop iterations (span trees, deadline scoring, /tracez); implied by -flight-dir or -telemetry-addr")
	fs.DurationVar(&c.LoopDeadline, "loop-deadline", 0,
		"coherence deadline each control-loop iteration is scored against (0 = none; see `pressctl budget`)")
	fs.StringVar(&c.ExportURL, "export-url", "",
		"push telemetry batches to this sink (http(s)://collector, or a file path for NDJSON append)")
	fs.DurationVar(&c.ExportInterval, "export-interval", 0,
		"telemetry export collection cadence (default 1s)")
	fs.StringVar(&c.ExportFormat, "export-format", "",
		"telemetry export payload format: ndjson|json (default ndjson)")
	fs.StringVar(&c.TSDBDir, "tsdb-dir", "",
		"persist metrics history into this directory (embedded TSDB; query with pressctl query or /query_range)")
	fs.DurationVar(&c.TSDBRetention, "tsdb-retention", 0,
		"metrics history retention for the 1m tier (default 24h; raw/10s tiers keep at most 30m/6h)")
}

// validate checks every flag before anything starts, returning the
// parsed log level and alert rules.
func (c *CLI) validate() (obs.Level, []health.Rule, error) {
	switch c.TelemetryFormat {
	case "", "json", "prom":
	default:
		return 0, nil, fmt.Errorf("obs: unknown -telemetry-format %q (want json|prom)", c.TelemetryFormat)
	}
	if !export.ValidFormat(c.ExportFormat) {
		return 0, nil, fmt.Errorf("export: unknown -export-format %q (want ndjson|json)", c.ExportFormat)
	}
	for _, d := range []struct {
		pkg, flag string
		v         time.Duration
	}{
		{"obs", "sample-interval", c.SampleInterval},
		{"perf", "runtime-metrics-interval", c.RuntimeMetricsInterval},
		{"prof", "profile-interval", c.ProfileInterval},
		{"prof", "profile-window", c.ProfileWindow},
		{"slo", "loop-deadline", c.LoopDeadline},
		{"export", "export-interval", c.ExportInterval},
		{"tsdb", "tsdb-retention", c.TSDBRetention},
	} {
		if d.v < 0 {
			return 0, nil, fmt.Errorf("%s: negative -%s %v", d.pkg, d.flag, d.v)
		}
	}
	if c.FlightDir != "" && c.FlightSegmentMB < 0 {
		return 0, nil, fmt.Errorf("flight: negative -flight-segment-mb %d", c.FlightSegmentMB)
	}
	level, err := obs.ParseLevel(c.LogLevel)
	if err != nil {
		return 0, nil, err
	}
	rules, err := health.ParseRules(c.AlertRules)
	return level, rules, err
}

// Start validates every flag, then brings the stack up in dependency
// order: CPU profile, live server, sinks (flight log, metrics store,
// export sink), collectors, producers. The dependencies between
// components all live here:
//
//   - -telemetry, -telemetry-addr, -trace, -export-url and -tsdb-dir
//     create a registry (shipping or persisting metrics needs one);
//   - -flight-dir and -telemetry-addr imply phase accounting and the
//     loop tracer, which then have somewhere to report;
//   - alert transitions are persisted to the flight log;
//   - -tsdb-dir without -export-url runs a local-only collector whose
//     only subscriber is the store.
//
// If any step fails, everything already started is stopped, in reverse
// order, before the error is returned. Log records go to logw.
func (c *CLI) Start(logw io.Writer) (err error) {
	level, rules, err := c.validate()
	if err != nil {
		return err
	}
	c.started = true
	defer func() {
		if err != nil {
			_ = c.stop() // the Start error is the one to report
			c.started = false
		}
	}()
	if level < obs.LevelOff {
		c.log = obs.NewLogger(logw, level, obs.Logfmt)
	}
	if c.Telemetry != "" || c.TelemetryAddr != "" || c.Trace != "" || c.ExportURL != "" || c.TSDBDir != "" {
		c.reg = obs.NewRegistry()
	}
	if c.Trace != "" {
		c.tracelog = obs.NewTraceLog()
		c.reg.SetTraceLog(c.tracelog)
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuFile = f
	}
	if c.TelemetryAddr != "" {
		c.rec = obs.NewRecorder(c.reg, c.SampleInterval, 0)
		c.rec.Start()
		c.srv = obs.NewServer(c.reg, c.rec)
		if err := c.srv.Start(c.TelemetryAddr); err != nil {
			return err
		}
	}

	// Sinks.
	if c.FlightDir != "" {
		if c.fl, err = flight.Open(filepath.Join(c.FlightDir, flight.NewRunID()), c.FlightSegmentMB); err != nil {
			return err
		}
	}
	if c.TSDBDir != "" {
		opt := tsdb.Options{Dir: c.TSDBDir, Reg: c.reg}
		if r := c.TSDBRetention; r > 0 {
			opt.Retention1m = r
			opt.RetentionRaw = min(r, tsdb.DefaultRetentionRaw)
			opt.Retention10s = min(r, tsdb.DefaultRetention10s)
		}
		if c.store, err = tsdb.Open(opt); err != nil {
			return fmt.Errorf("tsdb: open %s: %w", c.TSDBDir, err)
		}
	}
	var sink export.Sink
	if c.ExportURL != "" {
		if sink, err = export.NewSink(c.ExportURL, c.ExportFormat); err != nil {
			return err
		}
	}

	// The monitor is built before the collectors, which feed it their
	// queue KPIs, but started with the other producers.
	if c.reg != nil || len(rules) > 0 {
		interval := c.HealthInterval
		if interval <= 0 {
			interval = c.SampleInterval
		}
		c.mon = health.NewMonitor(c.reg, rules, interval, 0)
		c.mon.Notify = notifier(c.srv, c.fl, c.log)
	}

	// Collectors.
	if sink != nil || c.store != nil {
		c.exp = export.New(c.reg, sink, export.Options{
			Interval: c.ExportInterval,
			Format:   c.ExportFormat,
			Monitor:  c.mon,
		})
		if c.store != nil {
			c.exp.AttachTap(c.store)
		}
		c.exp.Start()
	}

	// Producers.
	c.mon.Start()
	if c.RuntimeMetricsInterval > 0 && (c.reg != nil || c.fl != nil) {
		c.sampler = perf.NewSampler(c.reg, c.fl, c.RuntimeMetricsInterval)
		c.sampler.Start()
	}
	if c.PhaseAccounting || c.fl != nil || c.srv != nil {
		c.pc = prof.NewCollector()
	}
	if c.ProfileInterval > 0 {
		c.profiler = prof.NewProfiler(c.ProfileInterval, c.ProfileWindow, c.ProfileTopN)
		c.profiler.Start()
	}
	if c.pc != nil && c.fl != nil {
		c.flush = &obs.Lifecycle{}
		c.flush.Start(nil, c.flushLoop)
	}
	if c.LoopTrace || c.fl != nil || c.srv != nil {
		c.tr = slo.NewTracer(c.reg, slo.Config{Deadline: c.LoopDeadline, Flight: c.fl, Health: c.mon})
	}

	if srv := c.srv; srv != nil {
		if c.mon != nil {
			health.RegisterRoutes(srv, c.mon)
		}
		if c.fl != nil {
			flight.RegisterRoutes(srv, c.FlightDir)
		}
		perf.RegisterRoutes(srv, c.sampler, c.BenchBaselineDir)
		prof.RegisterRoutes(srv, c.pc, c.profiler)
		slo.RegisterRoutes(srv, c.tr)
		if sink != nil {
			export.RegisterRoutes(srv, c.exp)
		}
		if c.store != nil {
			tsdb.RegisterRoutes(srv, c.store)
			srv.AddHealthz(c.store.HealthzLine)
		}
	}
	c.logStarted(sink)
	return nil
}

// notifier returns the health monitor's event hook: alert transitions
// are persisted to the flight log, every event is published on the SSE
// stream, and alerts are logged.
func notifier(srv *obs.Server, fl *flight.Recorder, log *obs.Logger) func(string, any) {
	return func(event string, v any) {
		ev, isAlert := v.(health.Event)
		isAlert = isAlert && event == "alert"
		if isAlert {
			fl.RecordAlert(ev.Rule, uint8(ev.From), uint8(ev.To), ev.Value)
		}
		srv.Publish(event, v)
		if !isAlert {
			return
		}
		msg := "alert " + ev.To.String()
		kv := []any{"rule", ev.Rule, "from", ev.From.String(), "value", ev.Value}
		if ev.To == health.StateFiring {
			log.Warn(msg, kv...)
		} else if log.Enabled(obs.LevelInfo) {
			log.Info(msg, kv...)
		}
	}
}

// logStarted reports what Start brought up.
func (c *CLI) logStarted(sink export.Sink) {
	log := c.log
	if log.Enabled(obs.LevelInfo) {
		if c.srv != nil {
			log.Info("telemetry server listening", "addr", c.srv.Addr())
		}
		if c.fl != nil {
			log.Info("flight recorder started", "dir", c.fl.Dir())
		}
		if c.sampler != nil {
			log.Info("runtime-metrics sampler started", "interval", c.sampler.Interval())
		}
		if c.profiler != nil {
			log.Info("continuous profiler started", "interval", c.ProfileInterval, "window", c.ProfileWindow)
		}
		if sink != nil {
			log.Info("telemetry export started", "sink", sink.String())
		}
		if c.store != nil {
			log.Info("tsdb started", "dir", c.TSDBDir)
		}
	}
	if c.RuntimeMetricsInterval > 0 && c.sampler == nil && log.Enabled(obs.LevelWarn) {
		log.Warn("-runtime-metrics-interval set but no telemetry output; enable -telemetry, -telemetry-addr, or -flight-dir")
	}
}

// flushLoop periodically writes cumulative phase-cost snapshots so a
// crashed run still carries cost data up to the last flush.
func (c *CLI) flushLoop(stop <-chan struct{}) {
	t := time.NewTicker(phaseFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.flushPhaseCosts()
		}
	}
}

func (c *CLI) flushPhaseCosts() {
	for _, pc := range c.pc.Snapshot() {
		c.fl.RecordPhaseCost(pc)
	}
}

// Scope adopts the running stack as one session scope named id — how a
// one-shot binary hands its flag-built telemetry to the producers
// through the same *Scope a daemon uses per session. A non-empty id
// also labels the exporter's root batches, so a single-session run
// ships and persists history stamped with its name. Closing the scope
// stops nothing: Finish does.
func (c *CLI) Scope(id string) *Scope {
	if id != "" {
		c.exp.SetRootSession(id)
	}
	return &Scope{id: id, reg: c.reg, log: c.log, mon: c.mon, fl: c.fl, pc: c.pc,
		tr: c.tr, srv: c.srv, exp: c.exp, ts: c.store}
}

// ServerAddr returns the bound address of the live telemetry server, or
// "" when none is serving. Useful with ":0" addresses.
func (c *CLI) ServerAddr() string {
	if c.srv == nil || c.srv.Addr() == nil {
		return ""
	}
	return c.srv.Addr().String()
}

// stop tears the stack down in data-flow order, the reverse of Start:
//
//  1. producers — final runtime sample, final phase-cost flush, loop
//     tracer, health monitor;
//  2. collectors — the exporter sends its final batch to the sink and
//     the store;
//  3. sinks — flight log, then store;
//  4. live server, then the CPU profile.
//
// Every step runs even when an earlier one fails; the first error is
// returned.
func (c *CLI) stop() error {
	c.sampler.SampleOnce()
	c.sampler.Stop()
	if c.flush != nil {
		c.flush.Stop()
	}
	if c.pc != nil && c.fl != nil {
		c.flushPhaseCosts()
	}
	c.profiler.Stop()
	c.tr.Stop()
	c.mon.Stop()

	errs := []error{c.exp.Stop(), c.fl.Close(), c.store.Close()}

	if c.srv != nil {
		errs = append(errs, c.srv.Close())
		c.rec.Stop()
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, c.cpuFile.Close())
	}
	c.sampler, c.flush, c.pc, c.profiler, c.tr, c.mon = nil, nil, nil, nil, nil, nil
	c.exp, c.fl, c.store, c.srv, c.rec, c.cpuFile = nil, nil, nil, nil, nil, nil
	return firstErr(errs...)
}

// Finish stops the stack (see stop for the order), then writes the
// heap profile, the span trace and the final metrics snapshot, logging a
// per-span summary. stdout is the writer used when -telemetry is "-".
// Every step runs even when an earlier one fails; the first error is
// returned. Finish is idempotent.
func (c *CLI) Finish(stdout io.Writer) error {
	if !c.started {
		return nil
	}
	c.started = false
	return firstErr(c.stop(), c.writeMemProfile(), c.writeTrace(), c.writeSnapshot(stdout))
}

func (c *CLI) writeMemProfile() error {
	if c.MemProfile == "" {
		return nil
	}
	runtime.GC() // materialize up-to-date allocation stats
	return writeFile(c.MemProfile, pprof.WriteHeapProfile)
}

func (c *CLI) writeTrace() error {
	if c.tracelog == nil {
		return nil
	}
	c.tracelog.Stop() // freeze the buffer before exporting it
	return writeFile(c.Trace, c.tracelog.WriteJSON)
}

func (c *CLI) writeSnapshot(stdout io.Writer) error {
	if c.reg == nil || c.Telemetry == "" {
		return nil
	}
	if c.log.Enabled(obs.LevelInfo) {
		spans := c.reg.Snapshot().Spans
		names := make([]string, 0, len(spans))
		for name := range spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := spans[name]
			c.log.Info("span summary", "span", name, "count", s.Count,
				"total_s", s.TotalSeconds, "mean_s", s.MeanSeconds, "max_s", s.MaxSeconds)
		}
	}
	write := c.reg.WriteJSON
	if c.TelemetryFormat == "prom" {
		write = c.reg.WriteText
	}
	if c.Telemetry == "-" {
		return write(stdout)
	}
	return writeFile(c.Telemetry, write)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
