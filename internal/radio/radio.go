// Package radio simulates the software-defined-radio measurement pipeline
// of the paper's exploratory study (§3.1–3.2): WARP/USRP-like endpoints
// transmit OFDM sounding frames through the multipath channel, the
// receiver estimates CSI from the training sequence, and a sweep engine
// steps the PRESS array through its configurations — including the
// testbed's measurement latency, which is what makes the coherence-time
// challenge of §2 concrete.
package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// Radio is one simulated SDR endpoint.
type Radio struct {
	Node propagation.Node
	// TxPowerDBm is the total transmit power, split evenly across used
	// subcarriers. WARP boards run around 10–18 dBm.
	TxPowerDBm float64
	// NoiseFigureDB is the receive noise figure; SDR front ends sit
	// around 5–8 dB.
	NoiseFigureDB float64
}

// Timing models the testbed's measurement latency. The paper reports that
// sweeping all 64 configurations takes about 5 seconds — ~78 ms per
// configuration — far beyond the channel coherence time, which is why
// they iterate the sweep 10 times and use statistics instead (§3.2).
type Timing struct {
	// PerMeasurement is the wall-clock cost of one configuration
	// measurement (frame exchange + host processing).
	PerMeasurement time.Duration
	// SwitchLatency is the extra cost of actuating the array between
	// configurations (control-plane plus RF-switch settling).
	SwitchLatency time.Duration
}

// PrototypeTiming reproduces the paper's ~5 s / 64 configs testbed.
var PrototypeTiming = Timing{PerMeasurement: 70 * time.Millisecond, SwitchLatency: 8 * time.Millisecond}

// SweepDuration returns how long measuring n configurations takes.
func (t Timing) SweepDuration(n int) time.Duration {
	return time.Duration(n) * (t.PerMeasurement + t.SwitchLatency)
}

// Link is a measurable TX→RX link through an environment, optionally
// modulated by a PRESS array.
type Link struct {
	Env  *propagation.Environment
	TX   *Radio
	RX   *Radio
	Grid ofdm.Grid
	// Array is the PRESS array between the endpoints; nil means a bare
	// link (the no-PRESS baseline).
	Array *element.Array
	// Faults injects element failures (§2 maintenance): commands to
	// faulty elements are overridden physically, invisible to the
	// controller except through the measured channel.
	Faults element.Faults
	// NumTraining is the training symbols per sounding frame (default 4).
	NumTraining int

	rng      *rand.Rand
	envPaths []propagation.Path // cached: environment does not switch

	sc    *scope.Scope
	onCSI func(snrDB []float64) // sc.CSIHook(), built once per attach
}

// AttachScope points the link's telemetry at a session scope: registry
// (CSI-measurement counters, channel-solve latency, sweep spans), phase
// accounting (path_trace, channel_sum, frame_synth, estimate, sweep),
// and each estimate's SNR curve to the scope's health monitor and
// flight log. A nil scope detaches; measurement then costs one pointer
// check per sink.
func (l *Link) AttachScope(sc *scope.Scope) {
	l.sc = sc
	l.onCSI = sc.CSIHook()
}

// NewLink wires up a link. The seed makes every measurement sequence
// reproducible. It returns an error for an invalid grid or environment.
func NewLink(env *propagation.Environment, tx, rx *Radio, grid ofdm.Grid, arr *element.Array, seed uint64) (*Link, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	l := &Link{
		Env: env, TX: tx, RX: rx, Grid: grid, Array: arr,
		NumTraining: 4,
		rng:         rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
	l.envPaths = propagation.TracePaths(env, tx.Node, rx.Node, l.Wavelength())
	return l, nil
}

// Wavelength returns the carrier wavelength of the link's grid.
func (l *Link) Wavelength() float64 { return rfphys.Wavelength(l.Grid.CenterHz) }

// InvalidateEnvironment re-traces the cached environment paths; call it
// after mutating Env (moving a blocker, adding scatterers).
func (l *Link) InvalidateEnvironment() {
	l.envPaths = propagation.TracePaths(l.Env, l.TX.Node, l.RX.Node, l.Wavelength())
}

// Paths returns the full path set under cfg: cached environment paths
// plus the array's switched paths. A nil array (or nil cfg with a nil
// array) yields the bare environment.
func (l *Link) Paths(cfg element.Config) []propagation.Path {
	if l.Array == nil {
		return l.envPaths
	}
	return withElementPaths(l.sc, l.envPaths, l.Array.N(), func() []propagation.Path {
		if len(l.Faults) > 0 {
			return l.Array.PathsWithFaults(l.Env, l.TX.Node, l.RX.Node, cfg, l.Faults, l.Wavelength())
		}
		return l.Array.Paths(l.Env, l.TX.Node, l.RX.Node, cfg, l.Wavelength())
	})
}

// withElementPaths returns env followed by the element paths trace
// enumerates, timed under path_trace: n image candidates (one per
// element), split into kept and culled.
func withElementPaths(sc *scope.Scope, env []propagation.Path, n int, trace func() []propagation.Path) []propagation.Path {
	sp := sc.Start(prof.PhaseTrace)
	ep := trace()
	sp.Add(prof.AuxImages, int64(n))
	sp.Add(prof.AuxPathsKept, int64(len(ep)))
	sp.Add(prof.AuxPathsCulled, int64(n-len(ep)))
	sp.End()
	out := make([]propagation.Path, 0, len(env)+len(ep))
	return append(append(out, env...), ep...)
}

// response sums paths over freqs at time t, timed under channel_sum
// with its subcarrier evaluations and path terms.
func response(sc *scope.Scope, paths []propagation.Path, freqs []float64, t float64) []complex128 {
	sp := sc.Start(prof.PhaseChannelSum)
	h := propagation.Response(paths, freqs, t)
	sp.Add(prof.AuxSubcarrierEvals, int64(len(h)))
	sp.Add(prof.AuxPathTerms, int64(len(paths)*len(h)))
	sp.End()
	return h
}

// TrueResponse returns the noiseless channel response under cfg at time t
// — ground truth for tests and for quantifying estimator error.
func (l *Link) TrueResponse(cfg element.Config, t float64) []complex128 {
	return response(l.sc, l.Paths(cfg), l.Grid.Frequencies(), t)
}

// perSubcarrierTxPowerW returns the transmit power allocated to each used
// subcarrier.
func (l *Link) perSubcarrierTxPowerW() float64 {
	return rfphys.DBmToWatts(l.TX.TxPowerDBm) / float64(l.Grid.NumUsed())
}

// perSubcarrierNoiseW returns the receiver noise power per subcarrier.
func (l *Link) perSubcarrierNoiseW() float64 {
	return rfphys.ThermalNoiseWatts(l.Grid.SpacingHz, l.RX.NoiseFigureDB)
}

// MeasureCSI transmits one sounding frame under cfg at time t and returns
// the receiver's channel estimate: the simulated equivalent of the
// paper's "the receiver estimates the channel state information from the
// training sequences in the frame".
func (l *Link) MeasureCSI(cfg element.Config, t float64) (*ofdm.CSI, error) {
	reg := l.sc.Registry()
	if reg == nil {
		return l.measureResponse(l.TrueResponse(cfg, t))
	}
	start := time.Now()
	h := l.TrueResponse(cfg, t)
	reg.Histogram("radio_channel_solve_seconds", obs.LatencyBuckets).
		ObserveDuration(time.Since(start))
	reg.Counter("radio_csi_measurements_total").Inc()
	return l.measureResponse(h)
}

// MeasureCSIContinuous is MeasureCSI for continuously-variable phase
// hardware (§4.1): the array contributes paths at arbitrary reflection
// phases instead of discrete stub states.
func (l *Link) MeasureCSIContinuous(phases element.ContinuousConfig, t float64) (*ofdm.CSI, error) {
	reg := l.sc.Registry()
	start := time.Time{}
	if reg != nil {
		start = time.Now()
	}
	paths := l.envPaths
	if l.Array != nil {
		paths = withElementPaths(l.sc, paths, l.Array.N(), func() []propagation.Path {
			return l.Array.ContinuousPaths(l.Env, l.TX.Node, l.RX.Node, phases, l.Wavelength())
		})
	}
	h := response(l.sc, paths, l.Grid.Frequencies(), t)
	if reg != nil {
		reg.Histogram("radio_channel_solve_seconds", obs.LatencyBuckets).
			ObserveDuration(time.Since(start))
		reg.Counter("radio_csi_measurements_total").Inc()
	}
	return l.measureResponse(h)
}

// measureResponse simulates the sounding frame over a known true channel
// response and runs the receiver's estimator.
func (l *Link) measureResponse(h []complex128) (*ofdm.CSI, error) {
	tx := ofdm.TrainingSequence(l.Grid)
	txPw := l.perSubcarrierTxPowerW()
	noise := l.perSubcarrierNoiseW()

	amp := complex(math.Sqrt(txPw), 0)
	sigma := math.Sqrt(noise / 2)
	nSym := l.NumTraining
	if nSym < 1 {
		nSym = 1
	}
	sp := l.sc.Start(prof.PhaseFrameSynth)
	rx := make([][]complex128, nSym)
	for s := range rx {
		rx[s] = make([]complex128, len(h))
		for k := range h {
			n := complex(l.rng.NormFloat64()*sigma, l.rng.NormFloat64()*sigma)
			rx[s][k] = amp*h[k]*tx[k] + n
		}
	}
	sp.Add(prof.AuxSymbols, int64(nSym))
	sp.End()
	esp := l.sc.Start(prof.PhaseEstimate)
	csi, err := ofdm.Estimate(l.Grid, rx, tx, txPw, noise)
	if err == nil {
		esp.Add(prof.AuxSubcarriers, int64(l.Grid.NumUsed()))
	}
	esp.End()
	if err == nil && l.onCSI != nil {
		l.onCSI(csi.SNRdB)
	}
	return csi, err
}

// Measurement is one configuration's measured CSI within a sweep.
type Measurement struct {
	ConfigIdx int
	Config    element.Config
	CSI       *ofdm.CSI
	// At is the simulation time of the measurement; under Doppler the
	// channel decorrelates across a slow sweep, exactly the §2 problem.
	At time.Duration
	// TraceID correlates the measurement with its "radio"-track span in
	// the Chrome trace export; zero when the link's registry carries no
	// TraceLog (the default — IDs are process-unique, so assigning them
	// unconditionally would break bit-identical replays).
	TraceID uint64
}

// SNRCurves flattens measurements into per-config SNR vectors, the shape
// the statistics in internal/stats consume.
func SNRCurves(ms []Measurement) [][]float64 {
	out := make([][]float64, len(ms))
	for i, m := range ms {
		out[i] = m.CSI.SNRdB
	}
	return out
}

// Sweep measures every configuration of the link's array once, in
// mixed-radix order, advancing simulated time by the timing model between
// measurements. It errors on links without an array.
func (l *Link) Sweep(timing Timing, start time.Duration) ([]Measurement, error) {
	if l.Array == nil {
		return nil, fmt.Errorf("radio: Sweep needs a PRESS array on the link")
	}
	reg := l.sc.Registry()
	sp := l.sc.Start(prof.PhaseSweep).Time("radio/sweep")
	n := l.Array.NumConfigs()
	out := make([]Measurement, 0, n)
	at := start
	tl := reg.TraceLog()
	var sweepErr error
	l.Array.EachConfig(func(idx int, c element.Config) bool {
		var traceID uint64
		wallStart := time.Time{}
		if tl != nil {
			traceID = obs.NewTraceID()
			wallStart = time.Now()
		}
		csi, err := l.MeasureCSI(c, at.Seconds())
		if err != nil {
			sweepErr = fmt.Errorf("radio: config %d: %w", idx, err)
			return false
		}
		if tl != nil {
			tl.Record("radio", "radio/measure", traceID, wallStart, time.Since(wallStart),
				map[string]any{"config": idx, "at_s": at.Seconds()})
		}
		out = append(out, Measurement{ConfigIdx: idx, Config: c.Clone(), CSI: csi, At: at, TraceID: traceID})
		at += timing.PerMeasurement + timing.SwitchLatency
		return true
	})
	sp.Add(prof.AuxConfigs, int64(len(out)))
	wall := sp.End()
	if sweepErr != nil {
		return nil, sweepErr
	}
	if reg != nil {
		reg.Counter("radio_sweeps_total").Inc()
		reg.Histogram("radio_sweep_seconds", obs.LatencyBuckets).ObserveDuration(wall)
	}
	return out, nil
}

// SweepTrials repeats Sweep `trials` times back-to-back — the paper's
// "we iterate through the 64 combinations 10 times and calculate
// statistics" — returning one measurement slice per trial.
func (l *Link) SweepTrials(timing Timing, trials int) ([][]Measurement, error) {
	if trials < 1 {
		return nil, fmt.Errorf("radio: trials must be positive")
	}
	out := make([][]Measurement, trials)
	var at time.Duration
	for tr := 0; tr < trials; tr++ {
		ms, err := l.Sweep(timing, at)
		if err != nil {
			return nil, err
		}
		out[tr] = ms
		at = ms[len(ms)-1].At + timing.PerMeasurement + timing.SwitchLatency
	}
	return out, nil
}
