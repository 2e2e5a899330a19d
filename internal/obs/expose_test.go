package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("search_evaluations_total").Add(42)
	r.Gauge("search_best_objective").Set(38.5)
	h := r.Histogram("radio_channel_solve_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	r.ObserveSpan("exp/fig4", time.Now(), 120*time.Millisecond)
	return r
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var sb strings.Builder
	if err := populated().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["search_evaluations_total"] != 42 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["search_best_objective"] != 38.5 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	h := snap.Histograms["radio_channel_solve_seconds"]
	if h.Count != 2 || len(h.Buckets) != 3 {
		t.Errorf("histogram = %+v", h)
	}
	sp := snap.Spans["exp/fig4"]
	if sp.Count != 1 || sp.TotalSeconds < 0.1 {
		t.Errorf("span = %+v", sp)
	}
}

func TestWriteTextPrometheusFormat(t *testing.T) {
	var sb strings.Builder
	if err := populated().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE search_evaluations_total counter",
		"search_evaluations_total 42",
		"# TYPE search_best_objective gauge",
		"search_best_objective 38.5",
		"# TYPE radio_channel_solve_seconds histogram",
		`radio_channel_solve_seconds_bucket{le="0.001"} 1`,
		`radio_channel_solve_seconds_bucket{le="+Inf"} 2`,
		"radio_channel_solve_seconds_count 2",
		"# TYPE exp_fig4_seconds summary",
		"exp_fig4_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"exp/fig4":    "exp_fig4",
		"ok_name":     "ok_name",
		"9lead":       "_lead",
		"with-dash.x": "with_dash_x",
		"":            "_",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
