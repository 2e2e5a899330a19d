package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("value = %d, want 5", got)
	}
	if r.Counter("hits_total") != c {
		t.Error("second lookup returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("budget")
	g.Set(120)
	g.Add(-20)
	if got := g.Value(); got != 100 {
		t.Errorf("value = %g, want 100", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 16 {
		t.Errorf("sum = %g, want 16", h.Sum())
	}
	snap := r.Snapshot().Histograms["lat"]
	// Cumulative: ≤1 → 2, ≤2 → 3, ≤5 → 4, +Inf → 5.
	wantCum := []int64{2, 3, 4, 5}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le=%s) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if snap.Buckets[len(snap.Buckets)-1].LE != "+Inf" {
		t.Errorf("last bucket le = %s", snap.Buckets[len(snap.Buckets)-1].LE)
	}
}

func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bulk", []float64{1, 2, 5})
	h.ObserveN(1.5, 3)
	h.ObserveN(10, 2)
	h.ObserveN(0.5, 0)  // no-op
	h.ObserveN(0.5, -4) // no-op
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 24.5 {
		t.Errorf("sum = %g, want 24.5", h.Sum())
	}
	snap := r.Snapshot().Histograms["bulk"]
	wantCum := []int64{0, 3, 3, 5}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le=%s) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	var nilH *Histogram
	nilH.ObserveN(1, 1) // must not panic
}

func TestHistogramDefaultAndDuplicateBuckets(t *testing.T) {
	r := NewRegistry()
	if h := r.Histogram("def", nil); len(h.bounds) != len(DefBuckets) {
		t.Errorf("default bounds = %v", h.bounds)
	}
	h := r.Histogram("dup", []float64{5, 1, 5, 2})
	want := []float64{1, 2, 5}
	if len(h.bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
	for i := range want {
		if h.bounds[i] != want[i] {
			t.Errorf("bounds = %v, want %v", h.bounds, want)
		}
	}
}

func TestBucketGenerators(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Errorf("linear = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("exponential = %v", exp)
	}
}

// TestNilRegistryIsInert covers the disabled default: every operation on
// a nil registry and its nil handles must be a silent no-op.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h", nil).Observe(1)
	r.Histogram("h", nil).ObserveDuration(time.Second)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h", nil).Count() != 0 {
		t.Error("nil handles reported nonzero values")
	}
	r.ObserveSpan("phase", time.Now(), time.Second)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAccess hammers one registry from many goroutines; run
// under -race this is the registry's thread-safety gate.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("ops_total").Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("vals", []float64{10, 100}).Observe(float64(i % 128))
				if i%100 == 0 {
					r.ObserveSpan("tick", time.Now(), time.Microsecond)
					_ = r.Snapshot() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != workers*perWorker {
		t.Errorf("ops_total = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("vals", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestZeroValueHandlesAreUsable(t *testing.T) {
	var c Counter
	c.Inc()
	if c.Value() != 1 {
		t.Error("zero-value counter broken")
	}
	var g Gauge
	g.Add(2.5)
	if g.Value() != 2.5 {
		t.Error("zero-value gauge broken")
	}
}
