package control

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/scope"
)

func instrTestArray(n int) *element.Array {
	elems := make([]*element.Element, n)
	for i := range elems {
		elems[i] = &element.Element{States: element.SP4TStates()}
	}
	return element.NewArray(elems...)
}

// instrTestEval scores configurations by the sum of their state indices —
// a deterministic landscape with a known optimum (all max states).
func instrTestEval(cfg element.Config) (float64, error) {
	s := 0.0
	for _, v := range cfg {
		s += float64(v)
	}
	return s, nil
}

func TestInstrumentedRecordsRun(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf strings.Builder
	log := obs.NewLogger(&logBuf, obs.LevelDebug, obs.Logfmt)
	arr := instrTestArray(3)

	s := InstrumentScope(Greedy{Rng: rand.New(rand.NewPCG(1, 2))}, scope.Adopt("", reg, log, nil, nil, nil))
	if s.Name() != "greedy" {
		t.Errorf("name = %q", s.Name())
	}
	res, err := s.Search(arr, instrTestEval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("search_evaluations_total").Value(); got != int64(res.Evaluations) {
		t.Errorf("evaluations counter = %d, result reports %d", got, res.Evaluations)
	}
	if got := reg.Counter("search_runs_total").Value(); got != 1 {
		t.Errorf("runs counter = %d", got)
	}
	if got := reg.Gauge("search_best_objective").Value(); got != res.BestScore {
		t.Errorf("best gauge = %g, result %g", got, res.BestScore)
	}
	snap := reg.Snapshot()
	sp, ok := snap.Spans["search/greedy"]
	if !ok || sp.Count != 1 {
		t.Errorf("search span missing: %+v", snap.Spans)
	}
	if !strings.Contains(logBuf.String(), "search: best improved") {
		t.Error("no trajectory events logged")
	}
	if !strings.Contains(logBuf.String(), "msg=\"search: finished\"") {
		t.Errorf("no summary event logged:\n%s", logBuf.String())
	}
}

func TestInstrumentedBudgetExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	arr := instrTestArray(4)
	s := InstrumentScope(Exhaustive{}, scope.Adopt("", reg, nil, nil, nil, nil))
	res, err := s.Search(arr, instrTestEval, 10)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := reg.Counter("search_evaluations_total").Value(); got != 10 {
		t.Errorf("evaluations counter = %d, want the budget 10", got)
	}
	if res.Evaluations != 10 {
		t.Errorf("result evaluations = %d", res.Evaluations)
	}
	if got := reg.Gauge("search_budget").Value(); got != 10 {
		t.Errorf("budget gauge = %g", got)
	}
}

// TestInstrumentDisabledPassThrough: with no scope, or a scope with
// every sink off, the searcher must come back unwrapped so default
// callers pay nothing.
func TestInstrumentDisabledPassThrough(t *testing.T) {
	base := HillClimb{Rng: rand.New(rand.NewPCG(3, 4))}
	for _, sc := range []*scope.Scope{nil, scope.Adopt("off", nil, nil, nil, nil, nil)} {
		if s := InstrumentScope(base, sc); s != Searcher(base) {
			t.Errorf("disabled InstrumentScope(%q) still wrapped the searcher", sc.ID())
		}
	}
}

// TestInstrumentedSameResult: instrumentation must not perturb the
// search itself — identical seeds give identical outcomes.
func TestInstrumentedSameResult(t *testing.T) {
	arr := instrTestArray(4)
	plain, err := (Anneal{Rng: rand.New(rand.NewPCG(7, 8)), Steps: 40}).Search(arr, instrTestEval, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scope.New("anneal", nil, scope.Config{PhaseAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	wrapped, err := InstrumentScope(Anneal{Rng: rand.New(rand.NewPCG(7, 8)), Steps: 40}, sc).
		Search(arr, instrTestEval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BestScore != wrapped.BestScore || plain.Evaluations != wrapped.Evaluations {
		t.Errorf("instrumentation changed the search: %+v vs %+v", plain, wrapped)
	}
}
