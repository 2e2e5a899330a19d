package prof

import (
	"testing"
	"time"
)

func TestPhaseNamesAndRoots(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.Name()
		if name == "" || name == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
		back, ok := PhaseByName(name)
		if !ok || back != p {
			t.Errorf("PhaseByName(%q) = %v, %v", name, back, ok)
		}
	}
	if Phase(200).Name() != "unknown" {
		t.Errorf("out-of-range name = %q", Phase(200).Name())
	}
	if _, ok := PhaseByName("nope"); ok {
		t.Error("PhaseByName accepted unknown name")
	}
	if !PhaseSweep.Root() || !PhaseSearch.Root() {
		t.Error("sweep/search must be roots")
	}
	if PhaseTrace.Root() || PhaseChannelSum.Root() || PhaseActuate.Root() {
		t.Error("leaf phase reported as root")
	}
	if !RootPhaseName("sweep") || RootPhaseName("path_trace") || RootPhaseName("nope") {
		t.Error("RootPhaseName misclassifies")
	}
}

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if _, ok := c.Begin(PhaseSweep); ok {
		t.Error("nil collector read the allocation counter")
	}
	c.Record(PhaseTrace, time.Second, 0, false)
	c.Add(PhaseTrace, AuxPathsKept, 5)
	if snap := c.Snapshot(); snap != nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
	if c.Uptime() != 0 {
		t.Error("nil uptime != 0")
	}
}
