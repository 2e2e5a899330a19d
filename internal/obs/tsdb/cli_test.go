package tsdb_test

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"press/internal/obs/scope"
	"press/internal/obs/tsdb"
)

func parseCLI(t *testing.T, args ...string) *scope.CLI {
	t.Helper()
	var c scope.CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestCLIDisabledByDefault(t *testing.T) {
	c := parseCLI(t)
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	sc := c.Scope("")
	if sc.TSDB() != nil {
		t.Error("store on without -tsdb-dir")
	}
	if sc.Exporter() != nil {
		t.Error("exporter on without -export-url or -tsdb-dir")
	}
	if sc.Registry() != nil {
		t.Error("registry on without any telemetry flag")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBadFlags(t *testing.T) {
	c := parseCLI(t, "-tsdb-retention", "-1s")
	if err := c.Start(io.Discard); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative -tsdb-retention accepted")
	}
}

// TestCLITSDBDirAloneCollects is the standalone path: -tsdb-dir with
// no -export-url must force a registry, bring up the local-only
// collector, and persist metrics that a fresh read-only store (the
// pressctl query path) can answer after Finish.
func TestCLITSDBDirAloneCollects(t *testing.T) {
	dir := t.TempDir()
	c := parseCLI(t, "-tsdb-dir", dir, "-export-interval", "25ms")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	sc := c.Scope("run-1")
	if sc.Registry() == nil {
		t.Fatal("-tsdb-dir alone must force a live registry")
	}
	if sc.TSDB() == nil || sc.Exporter() == nil {
		t.Fatal("store/local collector missing")
	}
	sc.Registry().Counter("cli_tsdb_work_total").Add(9)
	sc.Exporter().CollectNow()
	// Give the ingest loop a moment to apply the offered batch.
	deadline := time.Now().Add(2 * time.Second)
	for sc.TSDB().State().Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}

	ro, err := tsdb.Open(tsdb.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ro.Instant(`cli_tsdb_work_total{session="run-1"}`, time.Now())
	if err != nil || len(samples) != 1 || samples[0].V != 9 {
		t.Fatalf("persisted total: %v %+v", err, samples)
	}
	// Self-telemetry landed in the same store.
	samples, err = ro.Instant(tsdb.CounterSamples, time.Now())
	if err != nil || len(samples) == 0 {
		t.Fatalf("self-telemetry missing: %v %+v", err, samples)
	}
}

// TestCLIWithExportURLSharesOneCollector: with both flags set, the
// push exporter feeds the store as its tap — no second collector.
func TestCLIWithExportURLSharesOneCollector(t *testing.T) {
	received := make(chan struct{}, 64)
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case received <- struct{}{}:
		default:
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer collector.Close()

	dir := t.TempDir()
	c := parseCLI(t, "-tsdb-dir", dir, "-export-url", collector.URL, "-export-interval", "25ms")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	sc := c.Scope("")
	if sink := sc.Exporter().State().Sink; sink != collector.URL {
		t.Fatalf("store rides a collector shipping to %q, want the push exporter", sink)
	}
	sc.Registry().Counter("both_legs_total").Add(3)
	sc.Exporter().CollectNow()
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("push leg never delivered")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	ro, err := tsdb.Open(tsdb.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ro.Instant("both_legs_total", time.Now())
	if err != nil || len(samples) != 1 || samples[0].V != 3 {
		t.Fatalf("store leg: %v %+v", err, samples)
	}
}
