package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"press/internal/control"
	"press/internal/controlplane"
)

// DemoOptions parameterizes the deadline-tracing demo: a real-time
// sense→search→actuate control loop run against the coherence budget of
// a moving endpoint, with an optional injected stall to force deadline
// misses on purpose.
type DemoOptions struct {
	// Seed drives the scenario and per-loop search RNGs (0 = 442).
	Seed uint64
	// Loops is the number of control-loop iterations (0 = 20).
	Loops int
	// SpeedMph sets the endpoint speed whose coherence time becomes the
	// per-loop deadline (0 = static endpoint, no deadline).
	SpeedMph float64
	// SlowPhase, when positive, stalls the sense phase of every loop by
	// this much wall time — the knob that makes loops miss their
	// deadline so /tracez and the burn-rate alert have something to show.
	SlowPhase time.Duration
	// Budget is the per-loop measurement budget (0 = 12).
	Budget int
}

// DefaultDemo returns the calibrated demo: 20 loops chasing a running
// endpoint (6 mph ≈ 8 ms coherence time at 2.462 GHz), no stall.
func DefaultDemo() DemoOptions {
	return DemoOptions{Seed: 442, Loops: 20, SpeedMph: 6, Budget: 12}
}

// DemoLoopRow is one control-loop iteration's timing verdict.
type DemoLoopRow struct {
	Seq     int
	Latency time.Duration
	Slack   time.Duration
	Missed  bool
	GainDB  float64
}

// DemoResult carries the per-loop rows and the deadline they were
// judged against.
type DemoResult struct {
	Deadline  time.Duration
	SpeedMph  float64
	SlowPhase time.Duration
	Loops     []DemoLoopRow
	Misses    int
}

// MissRatio is the fraction of loops that overran their deadline.
func (r *DemoResult) MissRatio() float64 {
	if len(r.Loops) == 0 {
		return 0
	}
	return float64(r.Misses) / float64(len(r.Loops))
}

// Print writes the per-loop table and the deadline-miss summary.
func (r *DemoResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Control-loop deadline demo: sense→search→actuate against the coherence budget")
	if r.Deadline > 0 {
		fmt.Fprintf(w, "deadline %v (%.1f mph endpoint at 2.462 GHz)", r.Deadline.Round(time.Microsecond), r.SpeedMph)
	} else {
		fmt.Fprintf(w, "deadline none (static endpoint)")
	}
	if r.SlowPhase > 0 {
		fmt.Fprintf(w, ", injected %v stall per loop", r.SlowPhase)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%4s  %10s  %10s  %-6s  %7s\n", "loop", "latency_ms", "slack_ms", "status", "gain_db")
	for _, row := range r.Loops {
		status := "ok"
		if row.Missed {
			status = "MISS"
		}
		fmt.Fprintf(w, "%4d  %10.3f  %10.3f  %-6s  %7.2f\n",
			row.Seq, float64(row.Latency)/1e6, float64(row.Slack)/1e6, status, row.GainDB)
	}
	fmt.Fprintf(w, "\nloops %d  misses %d  miss ratio %.2f\n", len(r.Loops), r.Misses, r.MissRatio())
}

// RunDemo drives Loops real control-loop iterations over the §3.2 NLoS
// testbed: sense (evaluate the standing configuration, plus the optional
// stall), search (a short greedy run under the measurement budget), and
// actuate (push the winner to a control-plane agent and await its ack).
// Each iteration runs under the ambient scope's loop tracer when one is
// attached — producing the span trees, deadline verdicts, and KindLoop
// flight frames the /tracez and `pressctl loops` surfaces render — but
// the experiment times loops itself so the printed miss ratio works with
// telemetry off too. Unlike the rest of the package this harness is
// wall-clock-real by design: latency depends on the host, only the
// searched configurations are deterministic per seed.
func RunDemo(o DemoOptions) (*DemoResult, error) {
	if o.Seed == 0 {
		o.Seed = 442
	}
	if o.Loops <= 0 {
		o.Loops = 20
	}
	if o.Budget <= 0 {
		o.Budget = 12
	}
	if o.SlowPhase < 0 {
		return nil, fmt.Errorf("experiments: negative slow-phase %v", o.SlowPhase)
	}
	deadline := control.CoherenceTimeAtSpeed(o.SpeedMph, 2.462e9)

	sc := CurrentScope()
	tr := sc.Tracer()
	// The demo owns the loop deadline: the tracer judges every loop
	// against the same coherence budget the printed table uses.
	tr.SetDeadline(deadline)

	scen := DefaultSISO(o.Seed)
	scen.Scope = sc
	link, err := scen.Build()
	if err != nil {
		return nil, err
	}
	ev := &control.LinkEvaluator{Link: link, Objective: control.MaxMinSNR{}}

	// A real (in-process) control plane so actuation has an ack round
	// trip for the tracer's actuate/ack spans.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aEnd, bEnd := controlplane.NewLossyPipe(controlplane.LossyConfig{Seed: o.Seed})
	agent := controlplane.NewAgent(1, link.Array)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = agent.Serve(ctx, aEnd)
	}()
	defer func() {
		cancel()
		aEnd.Close()
		bEnd.Close()
		<-served
	}()
	ctrl := controlplane.NewController(bEnd)
	ctrl.AttachScope(sc)
	hctx, hcancel := context.WithTimeout(ctx, 2*time.Second)
	defer hcancel()
	if err := ctrl.Handshake(hctx); err != nil {
		return nil, err
	}

	cur, ok := link.Array.AllTerminated()
	if !ok {
		cur = make([]int, link.Array.N())
	}
	res := &DemoResult{Deadline: deadline, SpeedMph: o.SpeedMph, SlowPhase: o.SlowPhase}
	for i := 0; i < o.Loops; i++ {
		start := time.Now()
		l := tr.StartLoop("demo")

		sense := sc.Node("sense")
		baseline, err := ev.Eval(cur)
		if o.SlowPhase > 0 {
			time.Sleep(o.SlowPhase)
		}
		sense.End()
		if err != nil {
			l.End()
			return nil, err
		}

		searcher := instrument(control.Greedy{Rng: newSeededRand(o.Seed, uint64(i)+1), Restarts: 1})
		r, err := searcher.Search(link.Array, ev.Eval, o.Budget)
		if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
			l.End()
			return nil, err
		}

		if err := ctrl.SetConfig(ctx, r.Best); err != nil {
			l.End()
			return nil, err
		}
		cur = r.Best
		l.End()

		lat := time.Since(start)
		row := DemoLoopRow{Seq: i + 1, Latency: lat, GainDB: r.BestScore - baseline}
		if deadline > 0 {
			row.Slack = deadline - lat
			row.Missed = lat > deadline
		}
		if row.Missed {
			res.Misses++
		}
		res.Loops = append(res.Loops, row)
	}
	return res, nil
}
