package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/scope"
)

// startCLI parses args into a fresh telemetry CLI and starts it, logging
// to logw.
func startCLI(t *testing.T, logw io.Writer, args ...string) (*scope.CLI, error) {
	t.Helper()
	c := new(scope.CLI)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c, c.Start(logw)
}

func mustStartCLI(t *testing.T, args ...string) *scope.CLI {
	t.Helper()
	c, err := startCLI(t, io.Discard, args...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCLIRegistersAllFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c scope.CLI
	c.Register(fs)
	for _, name := range []string{
		"telemetry", "telemetry-format", "telemetry-addr",
		"sample-interval", "trace", "log-level", "cpuprofile", "memprofile",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestCLIDisabledByDefault(t *testing.T) {
	c := mustStartCLI(t)
	sc := c.Scope("")
	if sc.Registry() != nil || sc.Logger() != nil || c.ServerAddr() != "" {
		t.Error("zero-flag CLI is not fully disabled")
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLISnapshotEmission(t *testing.T) {
	c := mustStartCLI(t, "-telemetry", "-")
	c.Scope("").Registry().Counter("demo_total").Add(3)
	var out bytes.Buffer
	if err := c.Finish(&out); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, out.String())
	}
	if snap.Counters["demo_total"] != 3 {
		t.Errorf("demo_total = %d, want 3", snap.Counters["demo_total"])
	}
}

func TestCLISnapshotToFileProm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	c := mustStartCLI(t, "-telemetry", path, "-telemetry-format", "prom")
	c.Scope("").Registry().Counter("demo_total").Add(9)
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "demo_total 9") {
		t.Errorf("prom snapshot missing counter:\n%s", data)
	}
}

func TestCLIBadFormatRejected(t *testing.T) {
	if _, err := startCLI(t, io.Discard, "-telemetry", "-", "-telemetry-format", "xml"); err == nil {
		t.Error("bad -telemetry-format accepted")
	}
}

func TestCLINegativeSampleIntervalRejected(t *testing.T) {
	c := scope.CLI{SampleInterval: -time.Second}
	if err := c.Start(io.Discard); err == nil {
		t.Error("negative -sample-interval accepted")
	}
}

func TestCLIProfileFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	c := mustStartCLI(t, "-cpuprofile", cpu, "-memprofile", mem)
	// Burn a little CPU so the profile is not empty.
	x := 0.0
	for i := 0; i < 1e5; i++ {
		x += float64(i) * 1.0001
	}
	_ = x
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestCLITraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	c := mustStartCLI(t, "-trace", path)
	sc := c.Scope("")
	if sc.Registry() == nil {
		t.Fatal("-trace alone must enable the registry")
	}
	sp := sc.Time("exp/run")
	time.Sleep(time.Millisecond)
	sp.End()
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var sawSpan bool
	for _, e := range events {
		if e["ph"] == "X" && e["name"] == "exp/run" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Errorf("trace missing exp/run span:\n%s", data)
	}
}

func TestCLITelemetryAddrLifecycle(t *testing.T) {
	c := mustStartCLI(t, "-telemetry-addr", "127.0.0.1:0", "-sample-interval", "10ms")
	addr := c.ServerAddr()
	if addr == "" {
		t.Fatal("no server address after Start")
	}
	c.Scope("").Registry().Counter("live_total").Add(5)

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "live_total 5") {
		t.Errorf("/metrics missing live_total:\n%s", body)
	}

	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	// The port must be released after Finish.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("server still answering after Finish")
	}
}

func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "metrics.json")
	var logBuf strings.Builder
	c, err := startCLI(t, &logBuf,
		"-telemetry", snapPath, "-log-level", "info",
		"-memprofile", filepath.Join(dir, "mem.pprof"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scope("")
	if sc.Registry() == nil || sc.Logger() == nil {
		t.Fatal("registry/logger not constructed")
	}
	sc.Registry().Counter("x_total").Inc()
	sp := sc.Time("phase")
	sp.End()
	if err := c.Finish(os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot file invalid: %v", err)
	}
	if snap.Counters["x_total"] != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if !strings.Contains(logBuf.String(), "span summary") {
		t.Errorf("span summary not logged: %s", logBuf.String())
	}
	for _, f := range []string{"mem.pprof", "cpu.pprof"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", f, err)
		}
	}
}

func TestCLIDisabledDefault(t *testing.T) {
	c, err := startCLI(t, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scope("").Registry() != nil || c.Scope("").Logger() != nil {
		t.Error("disabled default constructed a registry/logger")
	}
	var sb strings.Builder
	if err := c.Finish(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("disabled Finish wrote output: %q", sb.String())
	}
}

func TestCLIDashWritesToStdoutWriter(t *testing.T) {
	c, err := startCLI(t, os.Stderr, "-telemetry", "-", "-telemetry-format", "prom")
	if err != nil {
		t.Fatal(err)
	}
	c.Scope("").Registry().Counter("y_total").Add(3)
	var sb strings.Builder
	if err := c.Finish(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "y_total 3") {
		t.Errorf("prom output = %q", sb.String())
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	c := scope.CLI{TelemetryFormat: "xml"}
	if err := c.Start(os.Stderr); err == nil {
		t.Error("bad format accepted")
	}
	c = scope.CLI{TelemetryFormat: "json", LogLevel: "loud"}
	if err := c.Start(os.Stderr); err == nil {
		t.Error("bad level accepted")
	}
}
