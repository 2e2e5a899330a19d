package tsdb

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"press/internal/obs"
	"press/internal/obs/export"
	"press/internal/obs/flight"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, kindSeries, encodeSeriesDecl(nil, 7, seriesCounter, seriesKey{"room1", "req_total"}))
	buf = appendFrame(buf, kindBlock, encodeBlock(nil, 1234, []blockSample{{7, 42.5}}))
	buf = appendFrame(buf, kindWatermark, encodeWatermark(nil, 5678))
	var got []struct {
		key seriesKey
		t   int64
		v   float64
	}
	wm, stats := scanFrames(buf, func(key seriesKey, kind byte, unixMs int64, v float64) {
		if kind != seriesCounter {
			t.Fatalf("kind = %d", kind)
		}
		got = append(got, struct {
			key seriesKey
			t   int64
			v   float64
		}{key, unixMs, v})
	})
	if stats.Frames != 3 || stats.Corrupt != 0 || stats.TornTail {
		t.Fatalf("stats: %+v", stats)
	}
	if wm != 5678 {
		t.Fatalf("wm = %d", wm)
	}
	if len(got) != 1 || got[0].key != (seriesKey{"room1", "req_total"}) || got[0].t != 1234 || got[0].v != 42.5 {
		t.Fatalf("samples: %+v", got)
	}
}

func TestDecodeResyncsPastCorruption(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, kindSeries, encodeSeriesDecl(nil, 1, seriesGauge, seriesKey{"", "g"}))
	mid := len(buf)
	buf = appendFrame(buf, kindBlock, encodeBlock(nil, 1000, []blockSample{{1, 1}}))
	buf = appendFrame(buf, kindBlock, encodeBlock(nil, 2000, []blockSample{{1, 2}}))
	// Corrupt a byte inside the first block's payload.
	buf[mid+flight.FrameHeaderLen] ^= 0xFF
	var pts []point
	_, stats := scanFrames(buf, func(_ seriesKey, _ byte, unixMs int64, v float64) {
		pts = append(pts, point{unixMs, v})
	})
	if stats.Corrupt != 1 || stats.Resyncs == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(pts) != 1 || pts[0].t != 2000 {
		t.Fatalf("surviving points: %+v", pts)
	}
}

// TestTornTailEveryTruncation is the kill -9 guarantee: a segment cut
// at ANY byte offset must decode its intact prefix — every complete
// frame survives, only the torn final frame is lost, and opening the
// store over the truncated file succeeds.
func TestTornTailEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, false)
	base := time.Now().UnixMilli()
	for i := 0; i < 20; i++ {
		feed(t, s, export.Batch{
			UnixMs:   base + int64(i)*1000,
			Counters: map[string]int64{"req_total": 1},
			Gauges:   map[string]float64{"depth_db": float64(i)},
		})
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "raw", "*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("want 1 raw segment, got %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	fullSamples := 0
	scanFrames(whole, func(_ seriesKey, _ byte, _ int64, _ float64) { fullSamples++ })
	if fullSamples != 40 {
		t.Fatalf("full decode: %d samples, want 40", fullSamples)
	}

	prevSamples := -1
	for cut := 0; cut <= len(whole); cut++ {
		n := 0
		stats, _ := decodeFrames(whole[:cut], func(kind byte, payload []byte) error { return nil })
		n = stats.Frames
		if cut == len(whole) && stats.TornTail {
			t.Fatal("intact segment reported torn")
		}
		if cut < len(whole) && n > fullSamples {
			t.Fatalf("cut=%d decoded %d frames from truncated data", cut, n)
		}
		_ = prevSamples
		prevSamples = n
	}

	// A truncated store still opens and serves what survived.
	cut := len(whole) - len(whole)/3
	if err := os.WriteFile(segs[0], whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer s2.Close()
	if !s2.openStats.TornTail && s2.openStats.Frames == 0 {
		t.Fatalf("open stats: %+v", s2.openStats)
	}
	samples, err := s2.Instant("req_total", time.UnixMilli(base+19_000))
	if err != nil || len(samples) != 1 {
		t.Fatalf("query over torn store: %v %+v", err, samples)
	}
	if samples[0].V <= 0 || samples[0].V > 20 {
		t.Fatalf("torn-store total = %v", samples[0].V)
	}
}
