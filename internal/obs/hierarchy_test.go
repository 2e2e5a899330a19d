package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"press/internal/obs/obstest"
)

func TestRegistryParentChaining(t *testing.T) {
	parent := NewRegistry()
	a := NewRegistryWithParent(parent)
	b := NewRegistryWithParent(parent)

	a.Counter("evals_total").Add(3)
	b.Counter("evals_total").Inc()
	parent.Counter("evals_total").Inc() // direct process-level write

	if got := a.Counter("evals_total").Value(); got != 3 {
		t.Fatalf("child a counter = %d, want 3", got)
	}
	if got := b.Counter("evals_total").Value(); got != 1 {
		t.Fatalf("child b counter = %d, want 1", got)
	}
	if got := parent.Counter("evals_total").Value(); got != 5 {
		t.Fatalf("parent roll-up = %d, want 5 (3+1+1)", got)
	}

	a.Gauge("best_db").Set(7.5)
	if got := parent.Gauge("best_db").Value(); got != 7.5 {
		t.Fatalf("parent gauge = %v, want 7.5", got)
	}
	b.Gauge("best_db").Add(1) // 0 + 1 in b, mirrors onto parent's 7.5
	if got := b.Gauge("best_db").Value(); got != 1 {
		t.Fatalf("child b gauge = %v, want 1", got)
	}

	a.Histogram("lat", []float64{1, 10}).Observe(0.5)
	b.Histogram("lat", []float64{1, 10}).Observe(5)
	if got := parent.Histogram("lat", nil).Count(); got != 2 {
		t.Fatalf("parent histogram count = %d, want 2", got)
	}
	if got := parent.Histogram("lat", nil).Sum(); got != 5.5 {
		t.Fatalf("parent histogram sum = %v, want 5.5", got)
	}

	a.ObserveSpan("phase/solve", time.Now(), time.Millisecond)
	snap := parent.Snapshot()
	ss, ok := snap.Spans["phase/solve"]
	if !ok || ss.Count != 1 {
		t.Fatalf("parent span roll-up missing: %+v", snap.Spans)
	}
}

func TestRegistryParentChainingConcurrent(t *testing.T) {
	parent := NewRegistry()
	const children, writes = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < children; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := NewRegistryWithParent(parent)
			for j := 0; j < writes; j++ {
				child.Counter("c").Inc()
				child.Histogram("h", nil).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := parent.Counter("c").Value(); got != children*writes {
		t.Fatalf("parent counter = %d, want %d", got, children*writes)
	}
	if got := parent.Histogram("h", nil).Count(); got != children*writes {
		t.Fatalf("parent histogram count = %d, want %d", got, children*writes)
	}
}

func TestWriteTextLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter("evals_total").Add(4)
	r.Gauge("best_db").Set(2.5)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := r.WriteTextLabeled(&sb, "session", `room-"7"`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"evals_total{session=\"room-\\\"7\\\"\"} 4\n",
		"best_db{session=\"room-\\\"7\\\"\"} 2.5\n",
		"lat_bucket{session=\"room-\\\"7\\\"\",le=\"1\"} 1\n",
		"lat_count{session=\"room-\\\"7\\\"\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHandleFuncAfterStartNoRace is the regression test for route
// registration racing the serving mux: routes keep arriving while
// requests are in flight; under -race this used to trip on the
// unsynchronized map writes inside the mux.
func TestHandleFuncAfterStartNoRace(t *testing.T) {
	reg := NewRegistry()
	srv := NewServer(reg, nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			srv.HandleFunc(fmt.Sprintf("/extra/%d", i), func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	resp, err := http.Get(base + "/extra/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late-registered route returned %d", resp.StatusCode)
	}
}

func TestTryHandleDuplicate(t *testing.T) {
	srv := NewServer(NewRegistry(), nil)
	if err := srv.TryHandle("/x", func(http.ResponseWriter, *http.Request) {}); err != nil {
		t.Fatalf("first TryHandle: %v", err)
	}
	if err := srv.TryHandle("/x", func(http.ResponseWriter, *http.Request) {}); err == nil {
		t.Fatal("duplicate TryHandle should error")
	}
	if err := srv.TryHandle("/metrics", func(http.ResponseWriter, *http.Request) {}); err == nil {
		t.Fatal("duplicate of a built-in route should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HandleFunc on a duplicate pattern should panic")
		}
	}()
	srv.HandleFunc("/x", func(http.ResponseWriter, *http.Request) {})
}

func TestEventsSessionFilter(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, time.Hour, 4)
	rec.Start()
	defer rec.Stop()
	srv := NewServer(reg, rec)

	sessReg := NewRegistryWithParent(reg)
	sessReg.Counter("session_hits").Inc()
	sessRec := NewRecorder(sessReg, time.Hour, 4)
	sessRec.Start()
	defer sessRec.Stop()
	srv.SetSessionResolver(func(id string) *Recorder {
		if id == "room-1" {
			return sessRec
		}
		return nil
	})

	// Unknown session: 404.
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/events?session=nope", nil)
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown session: got %d, want 404", rr.Code)
	}

	// Known session: the stream starts with that scope's backlog sample.
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr().String() + "/events?session=room-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		// Give the subscriber a beat to register, then publish one event
		// for another session (must be filtered) and one for ours.
		time.Sleep(20 * time.Millisecond)
		srv.PublishSession("room-2", "alert", map[string]string{"who": "other"})
		srv.PublishSession("room-1", "alert", map[string]string{"who": "mine"})
	}()

	buf := make([]byte, 4096)
	var got strings.Builder
	obstest.WaitUntil(t, 5*time.Second, func() bool {
		n, err := resp.Body.Read(buf)
		got.Write(buf[:n])
		return strings.Contains(got.String(), `"who":"mine"`) || err != nil
	})
	out := got.String()
	if !strings.Contains(out, "session_hits") {
		t.Fatalf("session stream missing scope backlog sample:\n%s", out)
	}
	if !strings.Contains(out, `"who":"mine"`) {
		t.Fatalf("session stream missing own event:\n%s", out)
	}
	if strings.Contains(out, `"who":"other"`) {
		t.Fatalf("session stream leaked another session's event:\n%s", out)
	}
}
