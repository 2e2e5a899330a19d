package control

import (
	"errors"
	"math"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// Instrumented wraps any Searcher with a telemetry scope's sinks: one
// span per run for wall-time, named "search/<name>" in the registry and
// "search" in the loop tracer's tree; the evaluations-consumed counter
// and budget gauge, the best-objective gauge, and best-so-far trajectory events on the structured log — the
// measure→search loop visibility the controller needs to stay inside
// its coherence budget. The scope's health monitor receives
// best-objective updates (the search_best / search_regret_db KPIs), its
// flight log every evaluation as a search-decision record (the audit
// trail `pressctl replay` re-verifies), its phase collector each
// evaluation under search_eval, and its loop tracer a "measure" child
// of the run's node per evaluation, so /tracez shows where a
// deadline-missing loop spent its coherence budget.
type Instrumented struct {
	Searcher Searcher
	sc       *scope.Scope
}

// InstrumentScope wraps s with every sink a telemetry scope carries. A
// nil (or fully disabled) scope returns s unchanged, so default callers
// pay nothing.
func InstrumentScope(s Searcher, sc *scope.Scope) Searcher {
	if sc.Registry() == nil && sc.Logger() == nil && sc.Health() == nil &&
		sc.Flight() == nil && sc.Prof() == nil && sc.Tracer() == nil {
		return s
	}
	return Instrumented{Searcher: s, sc: sc}
}

// Name implements Searcher.
func (in Instrumented) Name() string { return in.Searcher.Name() }

// Search implements Searcher: it runs the wrapped strategy with an
// observed EvalFunc, mirroring exactly what tracker.measure sees (every
// successful evaluation, in order), and records the run's wall time.
func (in Instrumented) Search(arr *element.Array, eval EvalFunc, budget int) (*Result, error) {
	name := in.Searcher.Name()
	reg, log := in.sc.Registry(), in.sc.Logger()
	mon, fl := in.sc.Health(), in.sc.Flight()
	reg.Counter("search_runs_total").Inc()
	reg.Gauge("search_budget").Set(float64(budget))
	evals := reg.Counter("search_evaluations_total")
	bestGauge := reg.Gauge("search_best_objective")
	trajectory := log.Enabled(obs.LevelDebug)

	run := in.sc.Time("search/" + name).Node("search")

	best := math.Inf(-1)
	n := 0
	wrapped := func(cfg element.Config) (float64, error) {
		sp := run.Child("measure").Start(prof.PhaseSearch)
		score, err := eval(cfg)
		if err != nil {
			sp.End()
			return score, err
		}
		sp.Add(prof.AuxConfigsScored, 1)
		sp.End()
		evals.Inc()
		n++
		improved := score > best
		if improved {
			best = score
			bestGauge.Set(score)
			mon.ObserveSearchBest(score)
			if trajectory {
				log.Debug("search: best improved",
					"searcher", name, "evaluation", n, "score", score)
			}
		}
		fl.RecordDecision(uint64(n), score, improved, cfg)
		return score, nil
	}

	res, err := in.Searcher.Search(arr, wrapped, budget)
	wall := run.End()

	if res != nil {
		log.Info("search: finished",
			"searcher", name, "evaluations", res.Evaluations, "budget", budget,
			"best", res.BestScore, "exhausted", errors.Is(err, ErrBudgetExhausted),
			"wall", wall)
	} else if err != nil {
		log.Error("search: failed", "searcher", name, "evaluations", n, "err", err)
	}
	return res, err
}
