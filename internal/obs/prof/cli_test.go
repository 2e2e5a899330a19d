package prof_test

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"press/internal/obs/flight"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

func parseCLI(t *testing.T, args ...string) *scope.CLI {
	t.Helper()
	var c scope.CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestCLIRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c scope.CLI
	c.Register(fs)
	for _, name := range []string{"phase-accounting", "profile-interval", "profile-window", "profile-top",
		"runtime-metrics-interval", "flight-dir", "telemetry-addr"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestCLIDisabledDefault(t *testing.T) {
	c := parseCLI(t)
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	if c.Scope("").Prof() != nil {
		t.Error("disabled default constructed live components")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLINegativeFlags(t *testing.T) {
	c := parseCLI(t, "-profile-interval=-1s")
	if err := c.Start(io.Discard); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative profile interval accepted")
	}
	c = parseCLI(t, "-profile-window=-1s")
	if err := c.Start(io.Discard); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative profile window accepted")
	}
}

// TestCLIExplicitAccounting: -phase-accounting alone builds a collector
// even with no output sink, so /profz-less harnesses can still read
// totals programmatically.
func TestCLIExplicitAccounting(t *testing.T) {
	c := parseCLI(t, "-phase-accounting")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer c.Finish(io.Discard)
	if c.Scope("").Prof() == nil {
		t.Fatal("no collector with -phase-accounting")
	}
}

// TestCLIFlightImpliesAccounting: recording a run implies phase
// accounting, and Finish lands the final cumulative totals in the log.
func TestCLIFlightImpliesAccounting(t *testing.T) {
	dir := t.TempDir()
	c := parseCLI(t, "-flight-dir="+dir)
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	sc := c.Scope("")
	if sc.Prof() == nil {
		t.Fatal("flight recording did not imply a collector")
	}
	s := sc.Start(prof.PhaseChannelSum)
	s.Add(prof.AuxSubcarrierEvals, 52)
	s.End()
	runDir := c.Scope("").Flight().Dir()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.PhaseCosts) == 0 {
		t.Fatal("no phase-cost records in run log")
	}
	last := run.PhaseCosts[len(run.PhaseCosts)-1]
	if last.Phase != "channel_sum" || last.Calls != 1 {
		t.Errorf("final phase cost = %+v", last)
	}
	rep, err := prof.BuildReport(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 {
		t.Error("report has no phases")
	}
}

// TestCLIProfzEndpoint: the telemetry server serves /profz with the
// uniform JSON treatment (gzip on request, no-store always).
func TestCLIProfzEndpoint(t *testing.T) {
	c := parseCLI(t, "-telemetry-addr=127.0.0.1:0", "-profile-interval=50ms", "-profile-window=10ms")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer c.Finish(io.Discard)
	sc := c.Scope("")
	if sc.Prof() == nil {
		t.Fatal("server without collector")
	}
	sp := sc.Start(prof.PhaseSweep)
	sp.Add(prof.AuxConfigs, 64)
	time.Sleep(time.Millisecond)
	sp.End()

	req, _ := http.NewRequest("GET", "http://"+c.ServerAddr()+"/profz", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q", cc)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var doc prof.ProfzDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ph := range doc.Phases {
		if ph.Phase == "sweep" && ph.Root && ph.Calls == 1 && ph.Aux["configs"] == 64 {
			found = true
		}
	}
	if !found {
		t.Errorf("sweep phase missing from /profz: %s", body)
	}
	if !strings.Contains(string(body), "uptime_seconds") {
		t.Errorf("/profz missing uptime: %s", body)
	}
}
