package flight_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"press/internal/obs/flight"
	"press/internal/obs/health"
	"press/internal/obs/scope"
)

func TestCLIRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var tele scope.CLI
	tele.Register(fs)
	for _, name := range []string{
		"flight-dir", "flight-segment-mb", // flight flags
		"alert-rules", "health-interval", // health flags
		"telemetry", "telemetry-addr", // obs flags
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestCLIDisabledDefault(t *testing.T) {
	var tele scope.CLI
	if err := tele.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	if rec := tele.Scope("").Flight(); rec != nil || rec.Dir() != "" {
		t.Error("flight recorder on with no flags set")
	}
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestCLIRecordsAndFinishes: -flight-dir opens one run directory per
// process, and alert transitions from the health monitor are persisted
// to it (other monitor events are not).
func TestCLIRecordsAndFinishes(t *testing.T) {
	root := t.TempDir()
	tele := scope.CLI{FlightDir: root, AlertRules: "deep_null=null_depth_db>25 for 2", HealthInterval: time.Hour}
	if err := tele.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	sc := tele.Scope("")
	rec := sc.Flight()
	if rec == nil {
		t.Fatal("Flight() nil despite -flight-dir")
	}
	dir := rec.Dir()
	if filepath.Dir(dir) != root || !regexp.MustCompile(`^[0-9]{8}T[0-9]{6}-[0-9a-f]{6}$`).MatchString(filepath.Base(dir)) {
		t.Fatalf("run dir %q not a valid run under %q", dir, root)
	}
	rec.RecordManifest(&flight.Manifest{Binary: "test", Scenario: "t", Seed: 1})
	rec.RecordKPI("k", 3)
	snr := make([]float64, 16)
	for i := range snr {
		snr[i] = 20
	}
	snr[4] = -6 // a 26 dB null
	for i := 0; i < 2; i++ {
		sc.Health().ObserveSNR(snr)
		sc.Health().Sample()
	}
	if err := tele.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	run, err := flight.ReadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.KPIs) != 1 || run.Manifest == nil {
		t.Errorf("run = %+v", run)
	}
	if n := len(run.Alerts); n != 2 || run.Alerts[0].To != uint8(health.StatePending) ||
		run.Alerts[1].Rule != "deep_null" || run.Alerts[1].To != uint8(health.StateFiring) {
		t.Errorf("alerts = %+v", run.Alerts)
	}
}

func TestCLIServedRunEndpoints(t *testing.T) {
	root := t.TempDir()
	tele := scope.CLI{FlightDir: root, TelemetryAddr: "127.0.0.1:0"}
	if err := tele.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer tele.Finish(io.Discard)
	rec := tele.Scope("").Flight()
	rec.RecordManifest(flight.NewManifest("pressctl", "demo", 42))
	rec.RecordCSI([]float64{10, 20, 30})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + tele.ServerAddr()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs = %d: %s", code, body)
	}
	var runs []*flight.Manifest
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if len(runs) != 1 || runs[0].Seed != 42 {
		t.Fatalf("/runs = %+v", runs)
	}

	code, body = get("/runs/" + runs[0].RunID + ".json")
	if code != http.StatusOK {
		t.Fatalf("/runs/{id}.json = %d: %s", code, body)
	}
	var sum flight.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, body)
	}
	if sum.Measurements != 1 || sum.Subcarriers != 3 || sum.Seed != 42 {
		t.Errorf("summary = %+v", sum)
	}

	if code, _ := get("/runs/no-such-run.json"); code != http.StatusNotFound {
		t.Errorf("missing run = %d, want 404", code)
	}
	if code, _ := get("/runs/evil.id.json"); code != http.StatusBadRequest {
		t.Errorf("invalid id = %d, want 400", code)
	}
}
