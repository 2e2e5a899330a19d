package prof_test

import (
	"sync"
	"testing"
	"time"

	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// Producers open phase spans through scope.Span; these cases drive the
// collector that way. accountingScope adopts c as a scope's only sink.
func accountingScope(c *prof.Collector) *scope.Scope {
	return scope.Adopt("", nil, nil, nil, nil, c)
}

func TestCollectorAccumulates(t *testing.T) {
	c := prof.NewCollector()
	sc := accountingScope(c)
	s := sc.Start(prof.PhaseChannelSum)
	time.Sleep(time.Millisecond)
	s.Add(prof.AuxSubcarrierEvals, 52)
	s.Add(prof.AuxPathTerms, 520)
	s.Add(prof.AuxPathTerms, 0) // no-op
	s.End()
	s.Add(prof.AuxPathTerms, 7) // after End: no-op

	s2 := sc.Start(prof.PhaseChannelSum)
	s2.End()
	s2.End() // idempotent: one call, not two

	snap := c.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	pc := snap[0]
	if pc.Phase != "channel_sum" || pc.Calls != 2 || pc.Ns < int64(time.Millisecond) {
		t.Errorf("phase cost = %+v", pc)
	}
	want := map[string]int64{"subcarrier_evals": 52, "path_terms": 520}
	if len(pc.Aux) != 2 {
		t.Fatalf("aux = %+v", pc.Aux)
	}
	for _, a := range pc.Aux {
		if want[a.Name] != a.Value {
			t.Errorf("aux %s = %d, want %d", a.Name, a.Value, want[a.Name])
		}
	}
	if c.Uptime() <= 0 {
		t.Error("uptime not advancing")
	}
}

func TestRootPhaseAccountsBytes(t *testing.T) {
	c := prof.NewCollector()
	s := accountingScope(c).Start(prof.PhaseSweep)
	sink = make([]byte, 1<<20)
	s.End()
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Phase != "sweep" {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The span allocated a megabyte; the process-wide counter must have
	// seen at least that.
	if snap[0].Bytes < 1<<20 {
		t.Errorf("sweep bytes = %d, want >= %d", snap[0].Bytes, 1<<20)
	}
}

var sink []byte

// TestAccountingZeroAllocs is the allocation-regression gate for the
// hot-path hooks: span open/close and aux adds must not allocate, with
// the collector enabled or the scope nil — mirroring the nil-registry
// tests in internal/obs.
func TestAccountingZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		sc   *scope.Scope
	}{
		{"enabled", accountingScope(prof.NewCollector())},
		{"nil", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/leaf_span", func(t *testing.T) {
			if n := testing.AllocsPerRun(200, func() {
				s := tc.sc.Start(prof.PhaseChannelSum)
				s.End()
			}); n != 0 {
				t.Errorf("leaf span = %v allocs/op, want 0", n)
			}
		})
		t.Run(tc.name+"/root_span", func(t *testing.T) {
			if n := testing.AllocsPerRun(200, func() {
				s := tc.sc.Start(prof.PhaseSweep)
				s.End()
			}); n != 0 {
				t.Errorf("root span = %v allocs/op, want 0", n)
			}
		})
		t.Run(tc.name+"/add", func(t *testing.T) {
			s := tc.sc.Start(prof.PhaseChannelSum)
			if n := testing.AllocsPerRun(200, func() {
				s.Add(prof.AuxSubcarrierEvals, 52)
			}); n != 0 {
				t.Errorf("Add = %v allocs/op, want 0", n)
			}
			s.End()
		})
	}
}

func TestConcurrentSpansDoNotRace(t *testing.T) {
	c := prof.NewCollector()
	sc := accountingScope(c)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := sc.Start(prof.PhaseSweep) // root: exercises the memBuf CAS
				s.Add(prof.AuxConfigs, 1)
				s.End()
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Calls != 2000 {
		t.Fatalf("snapshot = %+v", snap)
	}
	for _, a := range snap[0].Aux {
		if a.Name == "configs" && a.Value != 2000 {
			t.Errorf("configs = %d, want 2000", a.Value)
		}
	}
}

// BenchmarkSpan measures the phase-accounting hook the physics loops
// pay per call: open + close one span. Budget: the nil case must be a
// pointer check (~1 ns), the enabled leaf case a clock read plus two
// atomic adds, and the enabled root case additionally a runtime/metrics
// read at each end. All zero allocations.
func BenchmarkSpan(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var sc *scope.Scope
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := sc.Start(prof.PhaseChannelSum)
			s.End()
		}
	})
	b.Run("leaf", func(b *testing.B) {
		sc := accountingScope(prof.NewCollector())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sc.Start(prof.PhaseChannelSum)
			s.End()
		}
	})
	b.Run("root", func(b *testing.B) {
		sc := accountingScope(prof.NewCollector())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sc.Start(prof.PhaseSweep)
			s.End()
		}
	})
}
