package prof

import (
	"testing"
	"time"
)

// BenchmarkAdd is the auxiliary-counter path (one atomic add behind a
// nil check), batched ×8 per iteration: the nil case is sub-nanosecond,
// and an op that small sits below the clock resolution of the short
// -benchtime=100x CI gate runs, making per-call timings pure noise.
// Divide ns/op by 8 for the per-call cost.
func BenchmarkAdd(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var c *Collector
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				c.Add(PhaseChannelSum, AuxSubcarrierEvals, 52)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				c.Add(PhaseChannelSum, AuxSubcarrierEvals, 52)
			}
		}
	})
}

// BenchmarkSnapshot is the flusher's cost: reading every counter and
// materializing wire records, paid once per flush interval.
func BenchmarkSnapshot(b *testing.B) {
	c := NewCollector()
	for p := Phase(0); p < NumPhases; p++ {
		c.Record(p, time.Microsecond, 0, false)
		c.Add(p, 0, 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink2 = c.Snapshot()
	}
}

var sink2 any

// BenchmarkProfilerCapture is one full profiler tick: a windowed CPU
// capture (1 ms window to keep the benchmark honest about parse cost,
// not sleep time), a delta heap profile, and both pprof parses. This is
// the background cost of -profile-interval, paid off the hot path.
func BenchmarkProfilerCapture(b *testing.B) {
	if testing.Short() {
		// Each capture is floored by the runtime's CPU-profile flush
		// latency (~200 ms), which swamps short CI bench budgets.
		b.Skip("skipping profiler capture in -short mode")
	}
	p := NewProfiler(0, time.Millisecond, DefaultTopN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.CaptureOnce()
	}
}

// BenchmarkHotspots is the /profz read path over a full ring of
// windows.
func BenchmarkHotspots(b *testing.B) {
	p := NewProfiler(0, time.Millisecond, DefaultTopN)
	for i := 0; i < profileKeepWindows; i++ {
		p.CaptureOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink2 = p.Hotspots()
	}
}
