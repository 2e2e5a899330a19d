package main

import (
	"fmt"
	"math"

	"press/internal/element"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// oracleTol is the relative tolerance between the simulator's channel
// response and the benchmark's own sum over the same paths.
const oracleTol = 1e-9

// directSum is the reference channel response, written out here rather
// than taken from the simulator: H(f, t) = Σ gain·e^{j2π(γt − fτ)}.
func directSum(paths []propagation.Path, freqs []float64, t float64) []complex128 {
	h := make([]complex128, len(freqs))
	for k, f := range freqs {
		var re, im float64
		for _, p := range paths {
			s, c := math.Sincos(2 * math.Pi * (p.DopplerHz*t - f*p.Delay))
			re += real(p.Gain)*c - imag(p.Gain)*s
			im += real(p.Gain)*s + imag(p.Gain)*c
		}
		h[k] = complex(re, im)
	}
	return h
}

// relErr returns ‖got − want‖ / ‖want‖.
func relErr(got, want []complex128) float64 {
	var num, den float64
	for k := range want {
		d := got[k] - want[k]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[k])*real(want[k]) + imag(want[k])*imag(want[k])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// checkSISO compares Link.TrueResponse under cfg at t with the direct sum
// over Link.Paths(cfg).
func checkSISO(l *radio.Link, cfg element.Config, t float64) error {
	got := l.TrueResponse(cfg, t)
	want := directSum(l.Paths(cfg), l.Grid.Frequencies(), t)
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d subcarriers, want %d", len(got), len(want))
	}
	if e := relErr(got, want); !(e <= oracleTol) {
		return fmt.Errorf("oracle: TrueResponse differs from the direct sum by %.3g relative", e)
	}
	return nil
}

// checkMIMO compares every antenna pair of MIMOLink.TrueChannel under cfg
// at t with the direct sum over that pair's traced and array paths.
func checkMIMO(l *radio.MIMOLink, cfg element.Config, t float64) error {
	ch, err := l.TrueChannel(cfg, t)
	if err != nil {
		return err
	}
	envPaths := pairEnvPaths(l)
	lambda := rfphys.Wavelength(l.Grid.CenterHz)
	freqs := l.Grid.Frequencies()
	got := make([]complex128, len(freqs))
	for i, rx := range l.RXAnts {
		for j, tx := range l.TXAnts {
			paths := append(append([]propagation.Path(nil), envPaths[i][j]...),
				l.Array.Paths(l.Env, tx, rx, cfg, lambda)...)
			for k, m := range ch.Matrices {
				got[k] = m.At(i, j)
			}
			if e := relErr(got, directSum(paths, freqs, t)); !(e <= oracleTol) {
				return fmt.Errorf("oracle: TrueChannel pair (%d,%d) differs from the direct sum by %.3g relative", i, j, e)
			}
		}
	}
	return nil
}
