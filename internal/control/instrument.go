package control

import (
	"errors"
	"math"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

// Instrumented wraps any Searcher with telemetry: a per-strategy span
// ("search/<name>") for wall-time, the evaluations-consumed counter and
// budget gauge, the best-objective gauge, and best-so-far trajectory
// events on the structured log — the measure→search loop visibility the
// controller needs to stay inside its coherence budget. With both Obs
// and Log nil the wrapper degrades to bare pass-through bookkeeping.
type Instrumented struct {
	Searcher Searcher
	Obs      *obs.Registry
	Log      *obs.Logger
	// Health, when set, receives best-objective updates as the search
	// progresses — the feed behind the search_best / search_regret_db
	// channel-health KPIs.
	Health *health.Monitor
	// Flight, when set, persists every evaluation (config, score,
	// improved flag) as a search-decision record in the run log — the
	// audit trail `pressctl replay` re-verifies.
	Flight *flight.Recorder
	// Prof, when set, accounts each evaluation to the search_eval root
	// phase (wall time, configs scored) so hotspot reports can apportion
	// the search loop's cost.
	Prof *prof.Collector
	// Tracer, when set, attaches the search to the loop iteration in
	// flight: one "search" phase span per run with a per-measurement
	// child span for every evaluation, so /tracez shows where a
	// deadline-missing loop spent its coherence budget.
	Tracer *slo.Tracer
}

// Instrument wraps s with a registry and logger unless both are nil,
// in which case s itself is returned and no overhead is added.
func Instrument(s Searcher, reg *obs.Registry, log *obs.Logger) Searcher {
	if reg == nil && log == nil {
		return s
	}
	return Instrumented{Searcher: s, Obs: reg, Log: log}
}

// InstrumentScope wraps s with every sink a telemetry scope carries. A
// nil (or fully disabled) scope returns s unchanged.
func InstrumentScope(s Searcher, sc *scope.Scope) Searcher {
	in := Instrumented{Obs: sc.Registry(), Log: sc.Logger(), Health: sc.Health(),
		Flight: sc.Flight(), Prof: sc.Prof(), Tracer: sc.Tracer()}
	if in == (Instrumented{}) {
		return s
	}
	in.Searcher = s
	return in
}

// Name implements Searcher.
func (in Instrumented) Name() string { return in.Searcher.Name() }

// Search implements Searcher: it runs the wrapped strategy with an
// observed EvalFunc, mirroring exactly what tracker.measure sees (every
// successful evaluation, in order), and records the run's wall time.
func (in Instrumented) Search(arr *element.Array, eval EvalFunc, budget int) (*Result, error) {
	name := in.Searcher.Name()
	in.Obs.Counter("search_runs_total").Inc()
	in.Obs.Gauge("search_budget").Set(float64(budget))
	evals := in.Obs.Counter("search_evaluations_total")
	bestGauge := in.Obs.Gauge("search_best_objective")
	trajectory := in.Log.Enabled(obs.LevelDebug)

	loop := in.Tracer.Current()

	best := math.Inf(-1)
	n := 0
	wrapped := func(cfg element.Config) (float64, error) {
		esp := in.Prof.Start(prof.PhaseSearch)
		msp := loop.Child("measure")
		score, err := eval(cfg)
		msp.End()
		if err != nil {
			esp.End()
			return score, err
		}
		in.Prof.Add(prof.PhaseSearch, prof.AuxConfigsScored, 1)
		esp.End()
		evals.Inc()
		n++
		improved := score > best
		if improved {
			best = score
			bestGauge.Set(score)
			in.Health.ObserveSearchBest(score)
			if trajectory {
				in.Log.Debug("search: best improved",
					"searcher", name, "evaluation", n, "score", score)
			}
		}
		in.Flight.RecordDecision(uint64(n), score, improved, cfg)
		return score, nil
	}

	sp := obs.StartSpan(in.Obs, "search/"+name)
	lsp := loop.Phase("search")
	res, err := in.Searcher.Search(arr, wrapped, budget)
	lsp.End()
	wall := sp.End()

	if res != nil {
		in.Log.Info("search: finished",
			"searcher", name, "evaluations", res.Evaluations, "budget", budget,
			"best", res.BestScore, "exhausted", errors.Is(err, ErrBudgetExhausted),
			"wall", wall)
	} else if err != nil {
		in.Log.Error("search: failed", "searcher", name, "evaluations", n, "err", err)
	}
	return res, err
}
