package experiments

import (
	"fmt"
	"io"
	"time"

	"press/internal/element"
	"press/internal/radio"
	"press/internal/stats"
)

// Fig8Options parameterizes the §3.2.3 MIMO conditioning experiment.
type Fig8Options struct {
	Seed uint64
	// Snapshots averaged per configuration measurement (paper: 50).
	Snapshots int
	// Repetitions of the whole sweep; the figure's CDFs pool condition
	// numbers "across subcarriers and experimental repetitions".
	Repetitions int
}

// DefaultFig8 matches the paper: 64 configs × mean of 50 measurements,
// pooled over 5 repetitions.
func DefaultFig8() Fig8Options {
	return Fig8Options{Seed: 822, Snapshots: 50, Repetitions: 5}
}

// Fig8Config is one configuration's condition-number distribution.
type Fig8Config struct {
	Config string
	// CDF is over per-subcarrier condition numbers (dB), pooled across
	// repetitions.
	CDF *stats.ECDF
	// MedianDB is the distribution median.
	MedianDB float64
}

// Fig8Result holds all 64 distributions and the best/worst exemplars the
// figure highlights in colour.
type Fig8Result struct {
	Configs []Fig8Config
	// BestIdx and WorstIdx index Configs by lowest/highest median.
	BestIdx, WorstIdx int
	// SpreadDB is the best-to-worst median difference — the paper's
	// "changing the 2×2 MIMO channel condition number by 1.5 dB".
	SpreadDB float64
}

// RunFig8 reproduces Figure 8: the distribution of 2×2 MIMO channel
// condition number across subcarriers for each PRESS configuration, each
// computed from the mean of `Snapshots` successive channel measurements.
func RunFig8(opts Fig8Options) (*Fig8Result, error) {
	if opts.Snapshots < 1 || opts.Repetitions < 1 {
		return nil, fmt.Errorf("experiments: fig8 needs ≥1 snapshot and repetition")
	}
	ml, err := MIMOScenario{Seed: opts.Seed, NumElements: 3, Snapshots: opts.Snapshots}.Build()
	if err != nil {
		return nil, err
	}
	nCfg := ml.Array.NumConfigs()
	samples := make([][]float64, nCfg)
	names := make([]string, nCfg)

	var at time.Duration
	for rep := 0; rep < opts.Repetitions; rep++ {
		var sweepErr error
		ml.Array.EachConfig(func(idx int, c element.Config) bool {
			ch, err := ml.MeasureAveraged(c, opts.Snapshots, radio.PrototypeTiming, at)
			if err != nil {
				sweepErr = err
				return false
			}
			at += time.Duration(opts.Snapshots) * radio.PrototypeTiming.PerMeasurement
			cond := condProfile(ch)
			samples[idx] = append(samples[idx], cond...)
			if rep == 0 {
				names[idx] = ml.Array.String(c)
			}
			return true
		})
		if sweepErr != nil {
			return nil, sweepErr
		}
	}

	res := &Fig8Result{Configs: make([]Fig8Config, nCfg)}
	for i := range samples {
		cdf := stats.NewECDF(samples[i])
		res.Configs[i] = Fig8Config{Config: names[i], CDF: cdf, MedianDB: cdf.Quantile(0.5)}
	}
	res.BestIdx, res.WorstIdx = 0, 0
	for i, c := range res.Configs {
		if c.MedianDB < res.Configs[res.BestIdx].MedianDB {
			res.BestIdx = i
		}
		if c.MedianDB > res.Configs[res.WorstIdx].MedianDB {
			res.WorstIdx = i
		}
	}
	res.SpreadDB = res.Configs[res.WorstIdx].MedianDB - res.Configs[res.BestIdx].MedianDB
	return res, nil
}

// Print renders the best/worst CDFs in full and the per-config medians.
func (r *Fig8Result) Print(w io.Writer) {
	best, worst := r.Configs[r.BestIdx], r.Configs[r.WorstIdx]
	fmt.Fprintf(w, "Figure 8: CDF of 2x2 MIMO condition number across subcarriers per PRESS configuration\n")
	fmt.Fprintf(w, "Best (lowest) median:  %s at %.2f dB\n", best.Config, best.MedianDB)
	fmt.Fprintf(w, "Worst (highest) median: %s at %.2f dB\n", worst.Config, worst.MedianDB)
	fmt.Fprintf(w, "Median spread best→worst = %.2f dB (paper: ≈1.5 dB)\n\n", r.SpreadDB)

	fmt.Fprintf(w, "%-10s  %-10s  %-10s\n", "cond (dB)", "best CDF", "worst CDF")
	for _, x := range []float64{0, 2, 4, 6, 8, 10, 12, 15} {
		fmt.Fprintf(w, "%-10.0f  %-10.4f  %-10.4f\n", x, best.CDF.CDF(x), worst.CDF.CDF(x))
	}
	fmt.Fprintf(w, "\nPer-config medians (dB):\n")
	for i, c := range r.Configs {
		marker := ""
		if i == r.BestIdx {
			marker = "  <-- best"
		}
		if i == r.WorstIdx {
			marker = "  <-- worst"
		}
		fmt.Fprintf(w, "%-18s %.2f%s\n", c.Config, c.MedianDB, marker)
	}
}
