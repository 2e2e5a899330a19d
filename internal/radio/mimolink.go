package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"press/internal/element"
	"press/internal/geom"
	"press/internal/mimo"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// MIMOLink is a multi-antenna link: every TX antenna × RX antenna pair is
// traced independently (antennas sit at different positions, so their
// multipath differs — that is what makes the channel matrix non-singular).
// It reproduces §3.2.3's setup: a 2×2 transceiver pair measured across
// all PRESS configurations.
type MIMOLink struct {
	Env    *propagation.Environment
	TXAnts []propagation.Node
	RXAnts []propagation.Node
	// TxPowerDBm and NoiseFigureDB play the same roles as on Link.
	TxPowerDBm    float64
	NoiseFigureDB float64
	Grid          ofdm.Grid
	Array         *element.Array
	// NumTraining is the per-snapshot training length (default 4).
	NumTraining int

	rng      *rand.Rand
	envPaths [][][]propagation.Path // [rx][tx] cached environment paths

	sc *scope.Scope
}

// AttachScope points the MIMO link's telemetry at a session scope:
// channel-solve telemetry on its registry and per-pair tracing,
// response evaluation and solves on its phases. MIMO links have no
// per-curve CSI hook; condition profiles flow through
// Scope.ObserveCondProfile. A nil scope detaches.
func (m *MIMOLink) AttachScope(sc *scope.Scope) { m.sc = sc }

// NewMIMOLink wires a MIMO link and pre-traces the environment for every
// antenna pair.
func NewMIMOLink(env *propagation.Environment, txAnts, rxAnts []propagation.Node,
	grid ofdm.Grid, arr *element.Array, seed uint64) (*MIMOLink, error) {

	if len(txAnts) == 0 || len(rxAnts) == 0 {
		return nil, fmt.Errorf("radio: MIMO link needs at least one antenna per side")
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	m := &MIMOLink{
		Env: env, TXAnts: txAnts, RXAnts: rxAnts,
		TxPowerDBm: 15, NoiseFigureDB: 6,
		Grid: grid, Array: arr, NumTraining: 4,
		rng: rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d)),
	}
	lambda := rfphys.Wavelength(grid.CenterHz)
	m.envPaths = make([][][]propagation.Path, len(rxAnts))
	for i, rx := range rxAnts {
		m.envPaths[i] = make([][]propagation.Path, len(txAnts))
		for j, tx := range txAnts {
			m.envPaths[i][j] = propagation.TracePaths(env, tx, rx, lambda)
		}
	}
	return m, nil
}

// TrueChannel returns the noiseless per-subcarrier channel matrices under
// cfg at time t.
func (m *MIMOLink) TrueChannel(cfg element.Config, t float64) (*mimo.Channel, error) {
	reg := m.sc.Registry()
	if reg != nil {
		start := time.Now()
		defer func() {
			reg.Histogram("radio_channel_solve_seconds", obs.LatencyBuckets).
				ObserveDuration(time.Since(start))
			reg.Counter("radio_mimo_solves_total").Inc()
		}()
	}
	lambda := rfphys.Wavelength(m.Grid.CenterHz)
	freqs := m.Grid.Frequencies()
	resp := make([][][]complex128, len(m.RXAnts))
	for i, rx := range m.RXAnts {
		resp[i] = make([][]complex128, len(m.TXAnts))
		for j, tx := range m.TXAnts {
			paths := m.envPaths[i][j]
			if m.Array != nil {
				paths = withElementPaths(m.sc, paths, m.Array.N(), func() []propagation.Path {
					return m.Array.Paths(m.Env, tx, rx, cfg, lambda)
				})
			}
			resp[i][j] = response(m.sc, paths, freqs, t)
		}
	}
	ssp := m.sc.Start(prof.PhaseSolve)
	ch, err := mimo.FromResponses(resp)
	if err == nil {
		ssp.Add(prof.AuxSolves, int64(len(ch.Matrices)))
	}
	ssp.End()
	return ch, err
}

// MeasureChannel returns one noisy channel snapshot under cfg at time t:
// the true matrices perturbed by the channel-estimation error an SDR
// would incur (per-entry complex Gaussian with variance noise/(P·S) for S
// training symbols).
func (m *MIMOLink) MeasureChannel(cfg element.Config, t float64) (*mimo.Channel, error) {
	ch, err := m.TrueChannel(cfg, t)
	if err != nil {
		return nil, err
	}
	txPw := rfphys.DBmToWatts(m.TxPowerDBm) / float64(m.Grid.NumUsed()) / float64(len(m.TXAnts))
	noise := rfphys.ThermalNoiseWatts(m.Grid.SpacingHz, m.NoiseFigureDB)
	nTrain := m.NumTraining
	if nTrain < 1 {
		nTrain = 1
	}
	sigma := math.Sqrt(noise / txPw / float64(nTrain) / 2)
	for _, mat := range ch.Matrices {
		for i := range mat.Data {
			mat.Data[i] += complex(m.rng.NormFloat64()*sigma, m.rng.NormFloat64()*sigma)
		}
	}
	return ch, nil
}

// MeasureAveraged measures `snapshots` successive channel snapshots under
// cfg, spaced by the timing model, and returns their element-wise mean —
// Figure 8's "mean of 50 successive channel measurements".
//
// When every endpoint is static the true channel is time-invariant, so
// the truth is traced once and only the noise is redrawn per snapshot —
// a large win for the 64-config × 50-snapshot Figure 8 sweep.
func (m *MIMOLink) MeasureAveraged(cfg element.Config, snapshots int, timing Timing, start time.Duration) (*mimo.Channel, error) {
	if snapshots < 1 {
		return nil, fmt.Errorf("radio: snapshots must be positive")
	}
	if m.static() {
		truth, err := m.TrueChannel(cfg, start.Seconds())
		if err != nil {
			return nil, err
		}
		// Averaging S i.i.d. noisy snapshots equals truth plus one noise
		// draw at σ/√S.
		sigma := m.estNoiseSigma() / math.Sqrt(float64(snapshots))
		for _, mat := range truth.Matrices {
			for i := range mat.Data {
				mat.Data[i] += complex(m.rng.NormFloat64()*sigma, m.rng.NormFloat64()*sigma)
			}
		}
		return truth, nil
	}
	snaps := make([]*mimo.Channel, 0, snapshots)
	at := start
	for s := 0; s < snapshots; s++ {
		ch, err := m.MeasureChannel(cfg, at.Seconds())
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, ch)
		at += timing.PerMeasurement
	}
	return mimo.Average(snaps)
}

// static reports whether all endpoints are stationary.
func (m *MIMOLink) static() bool {
	for _, n := range m.TXAnts {
		if n.Velocity != (geom.Vec{}) {
			return false
		}
	}
	for _, n := range m.RXAnts {
		if n.Velocity != (geom.Vec{}) {
			return false
		}
	}
	return true
}

// estNoiseSigma returns the per-entry complex-component standard deviation
// of one snapshot's estimation error.
func (m *MIMOLink) estNoiseSigma() float64 {
	txPw := rfphys.DBmToWatts(m.TxPowerDBm) / float64(m.Grid.NumUsed()) / float64(len(m.TXAnts))
	noise := rfphys.ThermalNoiseWatts(m.Grid.SpacingHz, m.NoiseFigureDB)
	nTrain := m.NumTraining
	if nTrain < 1 {
		nTrain = 1
	}
	return math.Sqrt(noise / txPw / float64(nTrain) / 2)
}
