package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"press/internal/control"
	"press/internal/element"
	"press/internal/geom"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// Fig7Options parameterizes the §3.2.2 network-harmonization experiment.
type Fig7Options struct {
	// Seed is the first candidate environment seed.
	Seed uint64
	// MaxSeedTries bounds the environment search: the paper states "the
	// elements and the surrounding environment were manipulated until a
	// frequency-selective channel was found", and this reproduces exactly
	// that loop.
	MaxSeedTries int
	// MinContrastDB is the half-band selectivity that counts as "clear"
	// (default 3 dB).
	MinContrastDB float64
}

// DefaultFig7 matches the paper: two USRP radios, two four-phase
// elements, environment manipulated until selectivity appears.
func DefaultFig7() Fig7Options {
	return Fig7Options{Seed: 700, MaxSeedTries: 40, MinContrastDB: 3}
}

// Fig7Result holds the two configurations with opposite frequency
// selectivity and their per-subcarrier SNR curves over the 102-subcarrier
// USRP grid.
type Fig7Result struct {
	// SeedUsed is the environment seed that exhibited selectivity.
	SeedUsed uint64
	// ConfigLower favours the lower half band; ConfigUpper the upper.
	ConfigLower, ConfigUpper string
	SNRLower, SNRUpper       []float64
	// ContrastLowerDB/UpperDB are mean(own half) − mean(other half).
	ContrastLowerDB, ContrastUpperDB float64
}

// buildFig7Link assembles the §3.2.2 testbed: USRP grid, two elements
// each with four reflective cable lengths and no absorptive load.
func buildFig7Link(seed uint64) (*radio.Link, error) {
	env := propagation.NewEnvironment(12, 9, 3)
	env.AttachScope(CurrentScope())
	env.AddScatterers(rand.New(rand.NewPCG(seed, 0xa11ce)), 10, 35)
	cx, cy := 6.0, 4.5
	env.Blockers = append(env.Blockers,
		geom.NewBlocker(geom.V(cx-0.4, cy-0.3, 0), geom.V(cx-0.1, cy+0.5, 2.2), 35))

	tx := &radio.Radio{
		Node:       propagation.Node{Pos: geom.V(cx-1.25, cy, 1.5), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		TxPowerDBm: 15, NoiseFigureDB: 6,
	}
	rx := &radio.Radio{
		Node:          propagation.Node{Pos: geom.V(cx+1.25, cy+0.2, 1.3), Pattern: rfphys.Omni{PeakGainDBi: 2}},
		NoiseFigureDB: 6,
	}
	rng := rand.New(rand.NewPCG(seed, 0xe1e))
	positions, err := element.DefaultPlacement.Place(rng, env.Room, tx.Node.Pos, rx.Node.Pos, 2)
	if err != nil {
		return nil, err
	}
	elems := make([]*element.Element, 2)
	for i, pos := range positions {
		elems[i] = element.NewParabolicElement(pos, rx.Node.Pos)
		// "each of which is attached to four different reflective cable
		// lengths and no absorptive load, to decrease the reflected phase
		// granularity".
		elems[i].States = element.FourPhaseStates()
	}
	link, err := radio.NewLink(env, tx, rx, ofdm.USRP102(), element.NewArray(elems...), seed)
	if err != nil {
		return nil, err
	}
	link.AttachScope(CurrentScope())
	return link, nil
}

// RunFig7 reproduces Figure 7: find an environment with a frequency-
// selective channel, then pick the two of the 16 configurations with the
// strongest opposite half-band selectivity.
func RunFig7(opts Fig7Options) (*Fig7Result, error) {
	if opts.MaxSeedTries < 1 {
		opts.MaxSeedTries = 1
	}
	if opts.MinContrastDB <= 0 {
		opts.MinContrastDB = 3
	}
	var best *Fig7Result
	for try := 0; try < opts.MaxSeedTries; try++ {
		seed := opts.Seed + uint64(try)
		link, err := buildFig7Link(seed)
		if err != nil {
			return nil, err
		}
		ms, err := link.Sweep(radio.PrototypeTiming, 0)
		if err != nil {
			return nil, err
		}
		lowerObj := control.HalfBandContrast{PreferLower: true}
		upperObj := control.HalfBandContrast{PreferLower: false}
		bestLo, bestUp := -1, -1
		var cLo, cUp float64
		for i, m := range ms {
			if s := lowerObj.Score(m.CSI); bestLo < 0 || s > cLo {
				bestLo, cLo = i, s
			}
			if s := upperObj.Score(m.CSI); bestUp < 0 || s > cUp {
				bestUp, cUp = i, s
			}
		}
		res := &Fig7Result{
			SeedUsed:        seed,
			ConfigLower:     link.Array.String(ms[bestLo].Config),
			ConfigUpper:     link.Array.String(ms[bestUp].Config),
			SNRLower:        ms[bestLo].CSI.SNRdB,
			SNRUpper:        ms[bestUp].CSI.SNRdB,
			ContrastLowerDB: cLo,
			ContrastUpperDB: cUp,
		}
		if best == nil || cLo+cUp > best.ContrastLowerDB+best.ContrastUpperDB {
			best = res
		}
		if cLo >= opts.MinContrastDB && cUp >= opts.MinContrastDB {
			return res, nil
		}
	}
	// No environment met the bar; return the most selective one found,
	// as the paper would keep manipulating — the caller sees the contrast
	// values and can judge.
	return best, nil
}

// Print renders the two curves.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: two configurations with opposite frequency selectivity (seed %d)\n", r.SeedUsed)
	fmt.Fprintf(w, "Lower-half config %s: contrast %+.1f dB; upper-half config %s: contrast %+.1f dB\n",
		r.ConfigLower, r.ContrastLowerDB, r.ConfigUpper, r.ContrastUpperDB)
	fmt.Fprintf(w, "%-10s  %-12s  %-12s\n", "subcarrier", "lower-cfg", "upper-cfg")
	for k := range r.SNRLower {
		fmt.Fprintf(w, "%-10d  %-12.2f  %-12.2f\n", k+1, r.SNRLower[k], r.SNRUpper[k])
	}
}
