package scope

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/export"
	"press/internal/obs/obstest"
	"press/internal/obs/tsdb"
)

func parseCLI(t *testing.T, args ...string) *CLI {
	t.Helper()
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

// TestCLIFlagsGolden pins the registered flag set — name, default and
// usage of every telemetry flag — so no binary's -h output drifts.
func TestCLIFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c CLI
	c.Register(fs)
	var got bytes.Buffer
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&got, "-%s\t%q\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag set drifted from testdata/flags.golden:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestCLIStartWiring is the dependency table of Start: which flags
// bring up which components, and which flag values are rejected.
func TestCLIStartWiring(t *testing.T) {
	dir := t.TempDir()
	flightDir := filepath.Join(dir, "runs")
	exportFile := filepath.Join(dir, "export.ndjson")
	tsdbDir := filepath.Join(dir, "tsdb")
	// Component letters: r registry, l logger, s server, h health
	// monitor, f flight, m runtime sampler, p phase accounting,
	// P profiler, t loop tracer, e exporter, d store.
	for _, tc := range []struct {
		args []string
		want string // components up after Start; "error" = rejected
	}{
		{nil, ""},
		{[]string{"-telemetry", "-"}, "rh"},
		{[]string{"-trace", filepath.Join(dir, "trace.json")}, "rh"},
		{[]string{"-log-level", "info"}, "l"},
		{[]string{"-telemetry-addr", "127.0.0.1:0"}, "rshpt"},
		{[]string{"-alert-rules", "default"}, "h"},
		{[]string{"-flight-dir", flightDir}, "fpt"},
		{[]string{"-runtime-metrics-interval", "1h"}, ""},
		{[]string{"-runtime-metrics-interval", "1h", "-flight-dir", flightDir}, "fmpt"},
		{[]string{"-runtime-metrics-interval", "1h", "-telemetry", "-"}, "rhm"},
		{[]string{"-phase-accounting"}, "p"},
		{[]string{"-profile-interval", "1h"}, "P"},
		{[]string{"-loop-trace"}, "t"},
		{[]string{"-loop-deadline", "5ms"}, ""},
		{[]string{"-export-url", exportFile}, "rhe"},
		{[]string{"-tsdb-dir", tsdbDir}, "rhed"},
		{[]string{"-tsdb-dir", tsdbDir, "-export-url", exportFile}, "rhed"},
		{[]string{"-telemetry-format", "xml"}, "error"},
		{[]string{"-log-level", "loud"}, "error"},
		{[]string{"-alert-rules", "bogus_kpi>1"}, "error"},
		{[]string{"-flight-dir", flightDir, "-flight-segment-mb", "-1"}, "error"},
		{[]string{"-export-format", "xml"}, "error"},
		{[]string{"-sample-interval", "-1s"}, "error"},
		{[]string{"-runtime-metrics-interval", "-1s"}, "error"},
		{[]string{"-profile-interval", "-1s"}, "error"},
		{[]string{"-profile-window", "-1s"}, "error"},
		{[]string{"-loop-deadline", "-1s"}, "error"},
		{[]string{"-export-interval", "-1s"}, "error"},
		{[]string{"-tsdb-retention", "-1s"}, "error"},
	} {
		name := strings.ReplaceAll(strings.Join(tc.args, " "), dir, "DIR")
		if name == "" {
			name = "no-flags"
		}
		t.Run(name, func(t *testing.T) {
			c := parseCLI(t, tc.args...)
			if err := c.Start(io.Discard); err != nil {
				if tc.want != "error" {
					t.Fatalf("Start: %v", err)
				}
				if c.Scope("").Registry() != nil || c.ServerAddr() != "" {
					t.Error("rejected Start left components behind")
				}
				return
			}
			if tc.want == "error" {
				c.Finish(io.Discard)
				t.Fatal("Start accepted a bad flag")
			}
			sc := c.Scope("")
			var got string
			for _, comp := range []struct {
				letter string
				up     bool
			}{
				{"r", sc.Registry() != nil}, {"l", sc.Logger() != nil}, {"s", sc.Server() != nil},
				{"h", sc.Health() != nil}, {"f", sc.Flight() != nil}, {"m", c.sampler != nil},
				{"p", sc.Prof() != nil}, {"P", c.profiler != nil}, {"t", sc.Tracer() != nil},
				{"e", sc.Exporter() != nil}, {"d", sc.TSDB() != nil},
			} {
				if comp.up {
					got += comp.letter
				}
			}
			if got != tc.want {
				t.Errorf("components = %q, want %q", got, tc.want)
			}
			if err := c.Finish(io.Discard); err != nil {
				t.Fatal(err)
			}
			if sc := c.Scope(""); sc.Health() != nil || sc.Flight() != nil || sc.Exporter() != nil || c.ServerAddr() != "" {
				t.Error("Finish left components attached")
			}
			if err := c.Finish(io.Discard); err != nil {
				t.Fatalf("second Finish: %v", err)
			}
		})
	}
}

// openFilesUnder lists this process's open file descriptors pointing
// into dir (Linux /proc; nil elsewhere).
func openFilesUnder(dir string) []string {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			open = append(open, target)
		}
	}
	return open
}

// TestCLIFailedStartReleasesEverything: when a late step of Start fails
// (here the export sink cannot be opened), everything already started
// — live server, flight log, background goroutines — is stopped before
// the error returns, since callers do not Finish a CLI whose Start
// failed.
func TestCLIFailedStartReleasesEverything(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()

	c := parseCLI(t, "-telemetry-addr", addr, "-flight-dir", dir,
		"-export-url", filepath.Join(dir, "no", "such", "dir", "x.ndjson"))
	if err := c.Start(io.Discard); err == nil {
		c.Finish(io.Discard)
		t.Fatal("Start succeeded with an unopenable export sink")
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("server still accepting on %s after a failed Start", addr)
	}
	if open := openFilesUnder(dir); len(open) > 0 {
		t.Errorf("flight log still open after a failed Start: %v", open)
	}
	if !obstest.WaitUntil(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Errorf("goroutines: %d before Start, %d after it failed", goroutines, runtime.NumGoroutine())
	}
}

// TestCLIFinishExportsFinalRuntimeSample: the runtime sampler's final
// sample is taken before the exporter sends its last batch, so the last
// exported value of every runtime_* series — and the last value in the
// metrics store — equals the value in the -telemetry snapshot.
func TestCLIFinishExportsFinalRuntimeSample(t *testing.T) {
	dir := t.TempDir()
	exportFile := filepath.Join(dir, "export.ndjson")
	snapFile := filepath.Join(dir, "snap.json")
	tsdbDir := filepath.Join(dir, "tsdb")
	c := parseCLI(t, "-export-url", exportFile, "-export-interval", "1h",
		"-runtime-metrics-interval", "1h", "-telemetry", snapFile, "-tsdb-dir", tsdbDir)
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	// Grow the heap between Start's sample and Finish's.
	ballast := make([][]byte, 16)
	for i := range ballast {
		ballast[i] = make([]byte, 1<<20)
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(ballast)

	data, err := os.ReadFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for name, v := range snap.Gauges {
		want[name] = v
	}
	for name, v := range snap.Counters {
		want[name] = float64(v)
	}
	for name, h := range snap.Histograms {
		want[name+"_count"] = float64(h.Count)
		want[name+"_sum"] = h.Sum
	}

	data, err = os.ReadFile(exportFile)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := export.DecodeBatches(data)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]float64{} // last gauge value, summed deltas
	for _, b := range batches {
		for name, v := range b.Gauges {
			exported[name] = v
		}
		for name, v := range b.Counters {
			exported[name] += float64(v)
		}
		for name, h := range b.Histograms {
			exported[name+"_count"] += float64(h.Count)
			exported[name+"_sum"] += h.Sum
		}
	}

	store, err := tsdb.Open(tsdb.Options{Dir: tsdbDir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	checked := 0
	for name, v := range want {
		if !strings.HasPrefix(name, "runtime_") {
			continue
		}
		checked++
		// A series never exported (or never stored) reads as zero.
		if got := exported[name]; !closeTo(got, v) {
			t.Errorf("%s: last exported %v, snapshot %v", name, got, v)
		}
		samples, err := store.Instant(name, time.Now())
		stored := 0.0
		if len(samples) == 1 {
			stored = samples[0].V
		}
		if err != nil || len(samples) > 1 || !closeTo(stored, v) {
			t.Errorf("%s: store has %+v (err %v), snapshot %v", name, samples, err, v)
		}
	}
	if checked < 9 {
		t.Errorf("snapshot carries %d runtime_* series, want the sampler's full set", checked)
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
