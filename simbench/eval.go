package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"press/internal/control"
	"press/internal/controlplane"
	"press/internal/element"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
	"press/internal/stats"
)

// counts are the counters the traced run turns into per-layer metrics.
type counts struct {
	evals     int
	pathTerms int
	// configs holds the configurations the current op's search has
	// evaluated; nil outside a search.
	configs     map[int]bool
	searchEvals int
	distinct    int
	// traceTime is TracePaths time: one shadow trace of the scene times
	// the number of traces the op made.
	traceTime time.Duration
}

func (c *counts) evaluated(arr *element.Array, cfg element.Config) {
	c.evals++
	if c.configs != nil {
		c.searchEvals++
		c.configs[arr.Index(cfg)] = true
	}
}

// beginSearch starts counting the distinct configurations a search
// evaluates. A nil *counts ignores it.
func (c *counts) beginSearch() {
	if c != nil {
		c.configs = map[int]bool{}
	}
}

func (c *counts) endOp() {
	c.distinct += len(c.configs)
	c.configs = nil
}

// sisoEval makes the public calls control.LinkEvaluator makes — MeasureCSI
// at the evaluator's simulated time, then Objective.Score — and checks the
// CSI and score are finite. With a controller set it first pushes every
// candidate to the room's agent, as a real control loop must before it
// can measure the candidate over the air. With a tracer set it wraps each
// call in a span and times the layers inside MeasureCSI with shadows.
type sisoEval struct {
	link   *radio.Link
	timing radio.Timing
	now    time.Duration
	freqs  []float64
	ctrl   *controlplane.Controller
	tr     *tracer
	n      *counts
}

func newSISOEval(link *radio.Link, timing radio.Timing) *sisoEval {
	return &sisoEval{link: link, timing: timing, freqs: link.Grid.Frequencies()}
}

func (e *sisoEval) eval(cfg element.Config) (float64, error) {
	tr := e.tr
	tr.begin("control.Eval")
	defer tr.end()
	if e.ctrl != nil {
		tr.begin("controlplane.SetConfig")
		err := e.ctrl.SetConfig(context.Background(), cfg)
		tr.end()
		if err != nil {
			return 0, err
		}
	}
	t := e.now.Seconds()
	tr.begin("radio.MeasureCSI")
	csi, err := e.link.MeasureCSI(cfg, t)
	if tr != nil && err == nil {
		var paths []propagation.Path
		tr.shadow("element.Paths", func() { paths = e.link.Paths(cfg) })
		tr.shadow("propagation.Response", func() { propagation.Response(paths, e.freqs, t) })
		e.n.pathTerms += len(paths) * len(e.freqs)
	}
	tr.end()
	if err != nil {
		return 0, err
	}
	if err := finiteCSI(csi); err != nil {
		return 0, err
	}
	e.now += e.timing.PerMeasurement + e.timing.SwitchLatency
	tr.begin("control.Score")
	score := control.MaxMinSNR{}.Score(csi)
	tr.end()
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return 0, fmt.Errorf("non-finite score %v", score)
	}
	if e.n != nil {
		e.n.evaluated(e.link.Array, cfg)
	}
	return score, nil
}

func finiteCSI(csi *ofdm.CSI) error {
	for k, h := range csi.H {
		if !finite(h) || math.IsNaN(csi.SNRdB[k]) || math.IsInf(csi.SNRdB[k], 0) {
			return fmt.Errorf("non-finite CSI on subcarrier %d", k)
		}
	}
	return nil
}

func finite(z complex128) bool {
	return !math.IsNaN(real(z)) && !math.IsInf(real(z), 0) && !math.IsNaN(imag(z)) && !math.IsInf(imag(z), 0)
}

// mimoEval makes the public calls control.MIMOEvaluator makes —
// MeasureAveraged of mimoSnaps snapshots, CondProfileDB, then the
// negated median — and checks every condition number is finite. The
// MIMO scenes are static, so every measurement is taken at time 0.
type mimoEval struct {
	link     *radio.MIMOLink
	freqs    []float64
	lambda   float64
	envPaths [][][]propagation.Path // [rx][tx]; traced once, for the shadows
	tr       *tracer
	n        *counts
}

func newMIMOEval(link *radio.MIMOLink) *mimoEval {
	return &mimoEval{link: link, freqs: link.Grid.Frequencies(), lambda: rfphys.Wavelength(link.Grid.CenterHz)}
}

func (e *mimoEval) eval(cfg element.Config) (float64, error) {
	tr := e.tr
	tr.begin("control.Eval")
	defer tr.end()
	tr.begin("radio.MeasureAveraged")
	ch, err := e.link.MeasureAveraged(cfg, mimoSnaps, radio.Timing{}, 0)
	if tr != nil && err == nil {
		e.shadowPairs(cfg)
	}
	tr.end()
	if err != nil {
		return 0, err
	}
	tr.begin("mimo.CondProfileDB")
	cond := ch.CondProfileDB()
	tr.end()
	for k, c := range cond {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, fmt.Errorf("non-finite condition number on subcarrier %d", k)
		}
	}
	tr.begin("control.Score")
	score := -stats.Median(cond)
	tr.end()
	if e.n != nil {
		e.n.evaluated(e.link.Array, cfg)
	}
	return score, nil
}

// shadowPairs repeats, for every antenna pair, the array path enumeration
// and the channel summation MeasureAveraged performs, under the shadows
// that time the element and propagation layers.
func (e *mimoEval) shadowPairs(cfg element.Config) {
	l := e.link
	if e.envPaths == nil {
		e.tr.offClock(func() { e.envPaths = pairEnvPaths(l) })
	}
	for i, rx := range l.RXAnts {
		for j, tx := range l.TXAnts {
			var ep []propagation.Path
			e.tr.shadow("element.Paths", func() { ep = l.Array.Paths(l.Env, tx, rx, cfg, e.lambda) })
			paths := append(append([]propagation.Path(nil), e.envPaths[i][j]...), ep...)
			e.tr.shadow("propagation.Response", func() { propagation.Response(paths, e.freqs, 0) })
			e.n.pathTerms += len(paths) * len(e.freqs)
		}
	}
}

// pairEnvPaths traces the environment for every antenna pair of l.
func pairEnvPaths(l *radio.MIMOLink) [][][]propagation.Path {
	lambda := rfphys.Wavelength(l.Grid.CenterHz)
	out := make([][][]propagation.Path, len(l.RXAnts))
	for i, rx := range l.RXAnts {
		out[i] = make([][]propagation.Path, len(l.TXAnts))
		for j, tx := range l.TXAnts {
			out[i][j] = propagation.TracePaths(l.Env, tx, rx, lambda)
		}
	}
	return out
}
