package health_test

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"press/internal/obs/health"
	"press/internal/obs/scope"
)

// TestLiveDeepNullAlertOverSSE is the end-to-end acceptance scenario: a
// full telemetry stack (registry, recorder, HTTP server, monitor) comes
// up through the CLI, a producer feeds SNR curves concurrently with the
// background sampler, and an induced deep null drives a rule through
// pending → firing → resolved, observed from the outside as named SSE
// events on /events. Run under -race this also exercises the
// producer/sampler/server locking.
func TestLiveDeepNullAlertOverSSE(t *testing.T) {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	var tele scope.CLI
	tele.Register(fs)
	if err := fs.Parse([]string{
		"-telemetry-addr", "127.0.0.1:0",
		"-alert-rules", "deep-null=null_depth_db>25 for 2 clear 20",
		"-health-interval", "5ms",
	}); err != nil {
		t.Fatal(err)
	}
	if err := tele.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer tele.Finish(io.Discard)
	mon := tele.Scope("").Health()
	if mon == nil {
		t.Fatal("health layer off despite -alert-rules")
	}
	base := "http://" + tele.ServerAddr()

	// Producer: feeds the link's SNR curve every millisecond. The curve
	// starts with a 30 dB null; once the test has seen the rule fire it
	// flips recovered and the curve goes flat (healthy past the 20 dB
	// clear level), which must resolve the alert.
	var recovered atomic.Bool
	feederCtx, stopFeeder := context.WithCancel(context.Background())
	defer stopFeeder()
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-feederCtx.Done():
				return
			case <-tick.C:
				if recovered.Load() {
					mon.ObserveSNR(health.SNRWithNull(32, 9, 2))
				} else {
					mon.ObserveSNR(health.SNRWithNull(32, 9, 30))
				}
			}
		}
	}()

	// Outside observer: a plain SSE client on /events.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}

	type transition struct {
		Rule string `json:"rule"`
		From string `json:"from"`
		To   string `json:"to"`
	}
	var seen []string
	sc := bufio.NewScanner(resp.Body)
	eventName := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventName = strings.TrimPrefix(line, "event: ")
		case line == "":
			eventName = ""
		case strings.HasPrefix(line, "data: ") && eventName == "alert":
			var tr transition
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &tr); err != nil {
				t.Fatalf("alert event not JSON: %v", err)
			}
			if tr.Rule != "deep-null" {
				t.Fatalf("unexpected rule %q", tr.Rule)
			}
			seen = append(seen, tr.To)
			if tr.To == "firing" {
				recovered.Store(true) // heal the channel
			}
		}
		if len(seen) > 0 && seen[len(seen)-1] == "resolved" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE stream broke before resolution (saw %v): %v", seen, err)
	}
	want := []string{"pending", "firing", "resolved"}
	if len(seen) < len(want) {
		t.Fatalf("transitions over SSE = %v, want %v", seen, want)
	}
	for i, w := range want {
		if seen[i] != w {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, seen[i], w, seen)
		}
	}

	// The side endpoints serve consistent views of the same incident.
	var alerts health.AlertsSnapshot
	getJSON(t, base+"/alerts", &alerts)
	if len(alerts.Rules) != 1 || alerts.Rules[0].FiredCount < 1 {
		t.Errorf("/alerts after incident = %+v", alerts)
	}
	var snap health.Snapshot
	getJSON(t, base+"/health.json", &snap)
	if len(snap.Series[health.KPINullDepthDB]) == 0 {
		t.Errorf("/health.json carries no %s series", health.KPINullDepthDB)
	}
	if len(snap.Spectrogram) == 0 {
		t.Error("/health.json carries no spectrogram")
	}

	dash := getBody(t, base+"/dashboard")
	if !strings.Contains(dash, "PRESS channel health") {
		t.Errorf("/dashboard does not look like the dashboard: %.80s", dash)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	body := getBody(t, url)
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
