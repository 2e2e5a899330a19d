package experiments

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"

	"press/internal/control"
	"press/internal/obs"
	"press/internal/obs/flight"
	"press/internal/obs/scope"
)

// SessionResult summarizes one room session: the calibrated NLoS
// scenario searched under a per-room measurement budget, observed
// through that room's telemetry scope.
type SessionResult struct {
	ID         string
	Seed       uint64
	Budget     int
	BaselineDB float64
	BestDB     float64
	GainDB     float64
	Evals      int
}

// Print writes the single-session row with a header.
func (r SessionResult) Print(w io.Writer) {
	fmt.Fprintln(w, "session    seed  baseline_db  best_db  gain_db  evals")
	r.printRow(w)
}

func (r SessionResult) printRow(w io.Writer) {
	fmt.Fprintf(w, "%-9s %5d  %11.2f  %7.2f  %7.2f  %5d\n",
		r.ID, r.Seed, r.BaselineDB, r.BestDB, r.GainDB, r.Evals)
}

// sessionSpec is the RunSpec a session manifest round-trips through —
// what `pressctl replay -flight-dir ROOT -session ID` re-executes.
func sessionSpec(seed uint64, budget int) RunSpec {
	return RunSpec{Exp: "session", Seed: seed, Budget: budget}
}

// RunSession executes one room session: the §3.2 NLoS scenario for the
// session's seed, a greedy search under the measurement budget, every
// measurement observed through sc (nil = unobserved). It is the
// deterministic replay unit behind Binary "pressim" / Scenario
// "session" manifests: the same (seed, budget) regenerates the same
// CSI and search-decision streams.
func RunSession(id string, seed uint64, budget int, sc *scope.Scope) (SessionResult, error) {
	if budget <= 0 {
		budget = 60
	}
	scen := DefaultSISO(seed)
	scen.Scope = sc
	link, err := scen.Build()
	if err != nil {
		return SessionResult{}, err
	}
	ev := &control.LinkEvaluator{Link: link, Objective: control.MaxMinSNR{}}
	base, ok := link.Array.AllTerminated()
	if !ok {
		base = make([]int, link.Array.N())
	}
	baseline, err := ev.Eval(base)
	if err != nil {
		return SessionResult{}, err
	}
	searcher := control.InstrumentScope(
		control.Greedy{Rng: newSeededRand(seed, 0x5e5510), Restarts: 4}, sc)
	res, err := searcher.Search(link.Array, ev.Eval, budget)
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return SessionResult{}, err
	}
	return SessionResult{
		ID: id, Seed: seed, Budget: budget,
		BaselineDB: baseline, BestDB: res.BestScore,
		GainDB: res.BestScore - baseline, Evals: res.Evaluations,
	}, nil
}

// ConcurrentOptions parameterizes the multi-room experiment: many
// sessions driven in parallel, each with its own telemetry scope in one
// bounded ScopeSet rolling up into the process registry.
type ConcurrentOptions struct {
	// Seed is the base seed; session i runs at Seed+i (0 = 442).
	Seed uint64
	// Sessions is the number of rooms driven.
	Sessions int
	// Workers bounds the sessions in flight at once (0 = min(4,
	// GOMAXPROCS): small enough that the LRU can only ever evict
	// already-finished rooms, whose flight logs are complete).
	Workers int
	// Budget is the per-session measurement budget.
	Budget int
	// MaxLive caps scope-set cardinality; finished rooms stay registered
	// (browsable via /sessions) until the cap evicts the oldest. Raised
	// to Workers when smaller so running rooms are never evicted.
	MaxLive int
	// FlightRoot, when set, gives every session its own run log as a
	// sibling run under this root — the shared -flight-dir that
	// `pressctl replay -session` selects from.
	FlightRoot string
}

// DefaultConcurrent returns the calibrated multi-room setup: 12 rooms,
// 8 live scopes (so the tail of the run demonstrates LRU eviction), a
// light per-room budget.
func DefaultConcurrent() ConcurrentOptions {
	return ConcurrentOptions{Sessions: 12, Budget: 60, MaxLive: 8}
}

// ConcurrentResult carries the per-room rows plus the cardinality and
// roll-up accounting the experiment exists to prove.
type ConcurrentResult struct {
	Sessions []SessionResult
	// Opened/Evicted/Live are the scope-set counters after the run.
	Opened, Evicted, Live int64
	// SumEvals is the sum of per-session search_evaluations_total
	// counters; RollUp is the parent registry's delta over the run. The
	// hierarchical roll-up contract is SumEvals == RollUp — including
	// the contributions of evicted rooms.
	SumEvals, RollUp int64
}

// Reconciled reports whether per-session totals and the hierarchical
// roll-up agree.
func (r *ConcurrentResult) Reconciled() bool { return r.SumEvals == r.RollUp }

// Print writes the per-room table and the reconciliation summary.
func (r *ConcurrentResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Concurrent rooms: per-session telemetry scopes with hierarchical roll-up")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "session    seed  baseline_db  best_db  gain_db  evals")
	for _, s := range r.Sessions {
		s.printRow(w)
	}
	fmt.Fprintf(w, "\nscopes: opened %d, evicted %d, live %d\n", r.Opened, r.Evicted, r.Live)
	status := "OK"
	if !r.Reconciled() {
		status = "MISMATCH"
	}
	fmt.Fprintf(w, "roll-up: sum(session evals) = %d, parent delta = %d  [%s]\n",
		r.SumEvals, r.RollUp, status)
}

// RunConcurrent drives Sessions room sessions through one bounded
// ScopeSet parented on the ambient registry (or a private root when
// telemetry is off — the roll-up check runs either way), then verifies
// that per-session counters and the parent roll-up reconcile exactly.
func RunConcurrent(o ConcurrentOptions) (*ConcurrentResult, error) {
	if o.Sessions <= 0 {
		o.Sessions = 12
	}
	if o.Budget <= 0 {
		o.Budget = 60
	}
	if o.Seed == 0 {
		o.Seed = 442
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	if workers > o.Sessions {
		workers = o.Sessions
	}
	capLive := o.MaxLive
	if capLive <= 0 {
		capLive = scope.DefaultMaxScopes
	}
	if capLive < workers {
		capLive = workers
	}

	parent := CurrentScope().Registry()
	if parent == nil {
		parent = obs.NewRegistry()
	}
	evalsBefore := parent.Counter("search_evaluations_total").Value()
	openedBefore := parent.Counter(scope.CounterScopesOpened).Value()
	evictedBefore := parent.Counter(scope.CounterScopesEvicted).Value()

	set := scope.NewSet(parent, capLive)
	defer set.Close()
	if srv := CurrentScope().Server(); srv != nil {
		// -telemetry-addr is serving: expose the rooms live on
		// /sessions (+ per-session metrics/healthz and ?session=
		// filtered SSE). On a repeat run in one process the routes
		// already exist; RegisterRoutes still repoints the resolver
		// and event publishing at this set before failing, so the
		// error is the expected steady state, not a fault.
		_ = set.RegisterRoutes(srv)
	}
	// With -export-url set, each room's registry ships as its own
	// session-labeled batch stream for as long as the room lives.
	set.AttachExporter(CurrentScope().Exporter())
	// With -tsdb-dir set, room removal/eviction releases the room's
	// series budget in the history store once its tail is collected.
	set.AttachTSDB(CurrentScope().TSDB())

	results := make([]SessionResult, o.Sessions)
	perScope := make([]int64, o.Sessions)
	errs := make([]error, o.Sessions)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < o.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			id := fmt.Sprintf("room-%02d", i)
			seed := o.Seed + uint64(i)
			var cfg scope.Config
			if o.FlightRoot != "" {
				cfg.FlightDir = filepath.Join(o.FlightRoot, flight.NewRunID())
			}
			sc, err := set.Open(id, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			man := flight.NewManifest("pressim", "session", seed)
			man.SetParams(sessionSpec(seed, o.Budget).Params())
			sc.RecordManifest(man)
			results[i], errs[i] = RunSession(id, seed, o.Budget, sc)
			// The scope's own counter, not Result.Evaluations: the
			// reconciliation below must compare exactly what the child
			// registries counted against what chained into the parent.
			perScope[i] = sc.Registry().Counter("search_evaluations_total").Value()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &ConcurrentResult{
		Sessions: results,
		Opened:   parent.Counter(scope.CounterScopesOpened).Value() - openedBefore,
		Evicted:  parent.Counter(scope.CounterScopesEvicted).Value() - evictedBefore,
		Live:     int64(set.Len()),
		RollUp:   parent.Counter("search_evaluations_total").Value() - evalsBefore,
	}
	for _, n := range perScope {
		res.SumEvals += n
	}
	if !res.Reconciled() {
		return res, fmt.Errorf("experiments: roll-up mismatch: sessions counted %d evaluations, parent saw %d",
			res.SumEvals, res.RollUp)
	}
	return res, nil
}
