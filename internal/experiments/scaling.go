package experiments

import (
	"fmt"
	"io"
	"time"

	"press/internal/element"
	"press/internal/radio"
	"press/internal/stats"
)

// MIMOScalingRow is one MIMO dimension's outcome.
type MIMOScalingRow struct {
	Dim int
	// BestMedianDB/WorstMedianDB are the per-config condition-number
	// medians at the extremes; SpreadDB their difference — PRESS's grip
	// on the channel conditioning.
	BestMedianDB, WorstMedianDB, SpreadDB float64
}

// MIMOScalingResult tests the §3.2.3 prediction: "we anticipate the
// impact of the PRESS elements to increase as the MIMO channel dimension
// increases past 2×2, as previously shown [21, 37]".
type MIMOScalingResult struct {
	Rows []MIMOScalingRow
}

// RunMIMOScaling sweeps all 64 configurations at each MIMO dimension and
// reports the condition-number spread PRESS commands.
func RunMIMOScaling(seed uint64, dims []int, snapshots int) (*MIMOScalingResult, error) {
	if len(dims) == 0 {
		dims = []int{2, 3, 4}
	}
	if snapshots < 1 {
		snapshots = 10
	}
	res := &MIMOScalingResult{}
	for _, dim := range dims {
		ml, err := MIMOScenario{Seed: seed, NumElements: 3, Snapshots: snapshots, Dim: dim}.Build()
		if err != nil {
			return nil, err
		}
		best, worst := 0.0, 0.0
		first := true
		var sweepErr error
		var at time.Duration
		ml.Array.EachConfig(func(_ int, c element.Config) bool {
			ch, err := ml.MeasureAveraged(c, snapshots, radio.PrototypeTiming, at)
			if err != nil {
				sweepErr = err
				return false
			}
			at += time.Duration(snapshots) * radio.PrototypeTiming.PerMeasurement
			cond := condProfile(ch)
			med := stats.Median(cond)
			if first || med < best {
				best = med
			}
			if first || med > worst {
				worst = med
			}
			first = false
			return true
		})
		if sweepErr != nil {
			return nil, sweepErr
		}
		res.Rows = append(res.Rows, MIMOScalingRow{
			Dim:           dim,
			BestMedianDB:  best,
			WorstMedianDB: worst,
			SpreadDB:      worst - best,
		})
	}
	return res, nil
}

// Print renders the table.
func (r *MIMOScalingResult) Print(w io.Writer) {
	fmt.Fprintf(w, "MIMO dimension scaling (§3.2.3 prediction): PRESS's conditioning control vs N×N\n\n")
	fmt.Fprintf(w, "%-6s  %-14s  %-14s  %-10s\n", "dim", "best median dB", "worst median dB", "spread dB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d  %-14.2f  %-15.2f  %-10.2f\n",
			row.Dim, row.BestMedianDB, row.WorstMedianDB, row.SpreadDB)
	}
	fmt.Fprintf(w, "\nPaper: \"we anticipate the impact of the PRESS elements to increase as the\n")
	fmt.Fprintf(w, "MIMO channel dimension increases past 2×2\".\n")
}

// FaultToleranceRow is one failure level's outcome.
type FaultToleranceRow struct {
	// Failed counts broken elements (of 6).
	Failed int
	// MeasuredGainDB is the greedy (measurement-driven) max-min-SNR gain
	// over the healthy-terminated baseline under the faults.
	MeasuredGainDB float64
	// ModelGainDB is the model-guided searcher's gain, whose model does
	// NOT know about the faults.
	ModelGainDB float64
}

// FaultToleranceResult tests the §2 operational challenge ("how to
// deploy, power, and maintain the PRESS array"): does the system degrade
// gracefully as wall elements fail, and does closed-loop measurement
// route around failures that an offline model cannot see?
type FaultToleranceResult struct {
	Rows []FaultToleranceRow
}

// RunFaultTolerance breaks 0, 2 and 4 of 6 elements (alternating stuck
// and dead) and compares measurement-driven vs model-driven control.
func RunFaultTolerance(seed uint64) (*FaultToleranceResult, error) {
	res := &FaultToleranceResult{}
	for _, failed := range []int{0, 2, 4} {
		faults := element.Faults{}
		for i := 0; i < failed; i++ {
			if i%2 == 0 {
				faults[i] = element.Fault{Kind: element.StuckAt, State: 2}
			} else {
				faults[i] = element.Fault{Kind: element.Dead}
			}
		}
		measured, model, err := faultGains(seed, faults)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FaultToleranceRow{
			Failed:         failed,
			MeasuredGainDB: measured,
			ModelGainDB:    model,
		})
	}
	return res, nil
}

// Print renders the table.
func (r *FaultToleranceResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fault tolerance (§2 operational challenges): 6-element array, broken elements\n")
	fmt.Fprintf(w, "stuck or dead; the controller is not told which\n\n")
	fmt.Fprintf(w, "%-8s  %-22s  %-20s\n", "failed", "measured-loop gain dB", "model-loop gain dB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d  %-22.2f  %-20.2f\n", row.Failed, row.MeasuredGainDB, row.ModelGainDB)
	}
	fmt.Fprintf(w, "\nClosed-loop measurement degrades gracefully; the offline model, blind to\n")
	fmt.Fprintf(w, "the faults, loses more of its edge as failures accumulate.\n")
}
