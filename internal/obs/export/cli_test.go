package export_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"press/internal/obs/export"
	"press/internal/obs/obstest"
	"press/internal/obs/scope"
)

// captureServer is an httptest collector: it accumulates every POSTed
// payload's batches.
type captureServer struct {
	mu      sync.Mutex
	batches []export.Batch
	fail    bool
}

func (cs *captureServer) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		payload, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cs.mu.Lock()
		defer cs.mu.Unlock()
		if cs.fail {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		bs, err := export.DecodeBatches(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cs.batches = append(cs.batches, bs...)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (cs *captureServer) counterTotal(session, name string) int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var total int64
	for _, b := range cs.batches {
		if b.Session == session {
			total += b.Counters[name]
		}
	}
	return total
}

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
	if c.Scope("").Exporter() != nil {
		t.Error("exporter on without -export-url")
	}
	if c.Scope("").Registry() != nil {
		t.Error("registry on without any telemetry flag")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBadFlags(t *testing.T) {
	c := parseCLI(t, "-export-format", "xml")
	if err := c.Start(io.Discard); err == nil {
		c.Finish(io.Discard)
		t.Fatal("bad -export-format accepted")
	}
	c = parseCLI(t, "-export-interval", "-1s")
	if err := c.Start(io.Discard); err == nil {
		c.Finish(io.Discard)
		t.Fatal("negative -export-interval accepted")
	}
}

func TestCLIExportURLAloneForcesRegistry(t *testing.T) {
	cs := &captureServer{}
	srv := httptest.NewServer(cs.handler())
	defer srv.Close()

	c := parseCLI(t, "-export-url", srv.URL, "-export-interval", "1h")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	sc := c.Scope("cli-run")
	if sc.Registry() == nil {
		t.Fatal("-export-url alone must force a live registry")
	}
	if sc.Exporter() == nil {
		t.Fatal("no exporter with -export-url")
	}
	sc.Registry().Counter("cli_work_total").Add(4)
	sc.Exporter().CollectNow()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := cs.counterTotal("cli-run", "cli_work_total"); got != 4 {
		t.Errorf("collector saw cli_work_total = %d, want 4", got)
	}
}

func TestCLIExportzAndHealthz(t *testing.T) {
	cs := &captureServer{}
	collector := httptest.NewServer(cs.handler())
	defer collector.Close()

	c := parseCLI(t,
		"-export-url", collector.URL,
		"-export-interval", "1h",
		"-telemetry-addr", "127.0.0.1:0")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer c.Finish(io.Discard)
	base := "http://" + c.ServerAddr()

	resp, err := http.Get(base + "/exportz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st export.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Sink != collector.URL {
		t.Errorf("/exportz = %+v", st)
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(body), "export: queue") {
		t.Errorf("/healthz missing export status line:\n%s", body)
	}
}

func TestCLIRetriesAgainstFlappingCollector(t *testing.T) {
	cs := &captureServer{fail: true}
	collector := httptest.NewServer(cs.handler())
	defer collector.Close()

	c := parseCLI(t, "-export-url", collector.URL, "-export-interval", "5ms")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	exp := c.Scope("").Exporter()
	c.Scope("").Registry().Counter("flap_total").Add(3)
	waitFor(t, "failures against 503 collector", func() bool {
		return exp.State().SendFailures > 0
	})
	cs.mu.Lock()
	cs.fail = false // collector restarts
	cs.mu.Unlock()
	waitFor(t, "recovery after restart", func() bool {
		return cs.counterTotal("", "flap_total") == 3
	})
	st := exp.State()
	if st.Retries == 0 {
		t.Error("no retries counted across collector restart")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFileSinkViaFlags(t *testing.T) {
	path := t.TempDir() + "/tele.ndjson"
	c := parseCLI(t, "-export-url", path, "-export-interval", "1h")
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	c.Scope("").Registry().Counter("file_work_total").Add(2)
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := export.DecodeBatches(data)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range batches {
		total += b.Counters["file_work_total"]
	}
	if total != 2 {
		t.Errorf("file sink total = %d, want 2", total)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !obstest.WaitUntil(t, 5*time.Second, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}
