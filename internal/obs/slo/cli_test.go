package slo_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"testing"
	"time"

	"press/internal/obs/scope"
	"press/internal/obs/slo"
)

func startCLI(t *testing.T, args ...string) *scope.CLI {
	t.Helper()
	var c scope.CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Finish(io.Discard) })
	return &c
}

func TestCLIDisabledByDefault(t *testing.T) {
	c := startCLI(t)
	if c.Scope("").Tracer() != nil {
		t.Error("tracer on without any telemetry flag")
	}
}

func TestCLILoopTraceFlag(t *testing.T) {
	c := startCLI(t, "-loop-trace", "-loop-deadline", "8ms")
	tr := c.Scope("").Tracer()
	if tr == nil {
		t.Fatal("-loop-trace did not create a tracer")
	}
	if tr.Deadline() != 8*time.Millisecond {
		t.Errorf("deadline = %v", tr.Deadline())
	}
}

func TestCLIImpliedByFlightDir(t *testing.T) {
	c := startCLI(t, "-flight-dir", t.TempDir())
	if c.Scope("").Tracer() == nil {
		t.Error("flight recording did not imply loop tracing")
	}
}

func TestCLINegativeDeadlineRejected(t *testing.T) {
	var c scope.CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Register(fs)
	if err := fs.Parse([]string{"-loop-deadline", "-1s"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(io.Discard); err == nil {
		_ = c.Finish(io.Discard)
		t.Fatal("negative -loop-deadline accepted")
	}
}

func TestCLITracezRoute(t *testing.T) {
	c := startCLI(t, "-telemetry-addr", "127.0.0.1:0", "-loop-deadline", "1ns")
	l := c.Scope("").Tracer().StartLoop("served")
	time.Sleep(time.Millisecond)
	l.End()

	resp, err := http.Get("http://" + c.ServerAddr() + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Loops != 1 || rep.Misses != 1 || len(rep.MissExemplars) != 1 {
		t.Errorf("/tracez report: %+v", rep)
	}
}
