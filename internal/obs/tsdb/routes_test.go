package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/export"
)

func TestRoutes(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(Options{Dir: dir, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	now := time.Now().UnixMilli()
	for i := 0; i < 30; i++ {
		s.applyBatch(export.Batch{
			UnixMs:   now - int64(30-i)*1000,
			Counters: map[string]int64{"route_hits_total": 1},
		})
	}
	srv := obs.NewServer(reg, nil)
	RegisterRoutes(srv, s)
	h := srv.Handler()

	get := func(url string) (int, string) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
		return rr.Code, rr.Body.String()
	}

	code, body := get("/query?query=route_hits_total")
	if code != http.StatusOK {
		t.Fatalf("/query: %d %s", code, body)
	}
	var doc struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Value  [2]any            `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad json: %v in %s", err, body)
	}
	if doc.Status != "success" || doc.Data.ResultType != "vector" || len(doc.Data.Result) != 1 {
		t.Fatalf("doc: %+v", doc)
	}
	if doc.Data.Result[0].Metric["__name__"] != "route_hits_total" {
		t.Fatalf("metric: %+v", doc.Data.Result[0].Metric)
	}
	if doc.Data.Result[0].Value[1] != "30" {
		t.Fatalf("value: %+v", doc.Data.Result[0].Value)
	}

	start := float64(now-30_000) / 1000
	end := float64(now) / 1000
	code, body = get(
		"/query_range?query=rate(route_hits_total[30s])&step=5s&start=" +
			trimFloat(start) + "&end=" + trimFloat(end))
	if code != http.StatusOK || !strings.Contains(body, `"resultType":"matrix"`) {
		t.Fatalf("/query_range: %d %s", code, body)
	}
	if !strings.Contains(body, `"values":[[`) {
		t.Fatalf("/query_range no values: %s", body)
	}

	// Errors come back Prometheus-shaped with 400.
	code, body = get("/query?query=rate(broken")
	if code != http.StatusBadRequest || !strings.Contains(body, `"status":"error"`) {
		t.Fatalf("parse error: %d %s", code, body)
	}
	code, body = get("/query_range?query=x&step=5s")
	if code != http.StatusBadRequest {
		t.Fatalf("missing range params accepted: %d %s", code, body)
	}

	code, body = get("/tsdbz")
	if code != http.StatusOK || !strings.Contains(body, `"enabled": true`) {
		t.Fatalf("/tsdbz: %d %s", code, body)
	}
}

func trimFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
