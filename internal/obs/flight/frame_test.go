package flight

import (
	"bytes"
	"testing"
)

// collect decodes data into (kind, payload) pairs plus stats.
func collect(t *testing.T, data []byte) ([]Kind, [][]byte, DecodeStats) {
	t.Helper()
	var kinds []Kind
	var payloads [][]byte
	stats, err := decodeFrames(data, func(kind Kind, payload []byte) error {
		kinds = append(kinds, kind)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("decodeFrames: %v", err)
	}
	return kinds, payloads, stats
}

func TestFrameRoundTrip(t *testing.T) {
	var data []byte
	payloads := [][]byte{
		{},
		{0x01},
		{0xF1, 0x7E, 0xF1, 0x7E}, // frame magic inside a payload is fine
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	for i, p := range payloads {
		data = appendFrame(data, Kind(i+1), p)
	}
	kinds, got, stats := collect(t, data)
	if stats.Frames != len(payloads) || stats.Corrupt != 0 || stats.TornTail {
		t.Fatalf("stats = %+v", stats)
	}
	for i, p := range payloads {
		if kinds[i] != Kind(i+1) || !bytes.Equal(got[i], p) {
			t.Errorf("frame %d: kind %v payload %x, want kind %v payload %x",
				i, kinds[i], got[i], Kind(i+1), p)
		}
	}
}

// TestFrameTornTailEveryOffset truncates the log at every byte offset of
// the final frame and checks the crash-recovery invariant: every
// preceding record still decodes, and no truncation point ever yields a
// corrupt or phantom frame.
func TestFrameTornTailEveryOffset(t *testing.T) {
	var data []byte
	n := 5
	for i := 0; i < n; i++ {
		data = appendFrame(data, KindCSI, bytes.Repeat([]byte{byte(i)}, 32+i))
	}
	last := len(data) - (32 + n - 1) - frameOverhead // start of the final frame
	for cut := last; cut < len(data); cut++ {
		kinds, _, stats := collect(t, data[:cut])
		if len(kinds) != n-1 {
			t.Fatalf("cut at %d: decoded %d frames, want %d", cut, len(kinds), n-1)
		}
		if stats.Corrupt != 0 {
			t.Fatalf("cut at %d: phantom corrupt frame: %+v", cut, stats)
		}
		// Any cut that leaves at least a full magic must be flagged as a
		// torn tail; a cut leaving 0 or 1 bytes is indistinguishable from
		// stray garbage and is just skipped.
		if cut >= last+2 && !stats.TornTail {
			t.Errorf("cut at %d (+%d into frame): torn tail not flagged: %+v", cut, cut-last, stats)
		}
	}
	// Truncating exactly at the frame boundary is a clean log.
	_, _, stats := collect(t, data[:last])
	if stats.TornTail || stats.Resyncs != 0 || stats.Frames != n-1 {
		t.Errorf("clean truncation: %+v", stats)
	}
}

// TestFrameCorruptMiddleResyncs flips bytes in a middle frame and checks
// the decoder skips it, counts it, and recovers every later frame.
func TestFrameCorruptMiddleResyncs(t *testing.T) {
	mk := func() []byte {
		var data []byte
		for i := 0; i < 5; i++ {
			data = appendFrame(data, KindKPI, bytes.Repeat([]byte{0x20 + byte(i)}, 24))
		}
		return data
	}
	frameLen := 24 + frameOverhead
	for off := 0; off < frameLen; off++ {
		data := mk()
		data[2*frameLen+off] ^= 0xFF // corrupt frame 2 (of 0..4)
		kinds, _, stats := collect(t, data)
		// Depending on the flipped byte the decoder loses exactly the
		// corrupt frame (CRC mismatch or broken magic); all four intact
		// frames must survive.
		if len(kinds) != 4 {
			t.Fatalf("flip at +%d: decoded %d frames, want 4 (stats %+v)", off, len(kinds), stats)
		}
		if stats.Resyncs == 0 {
			t.Errorf("flip at +%d: no resync counted: %+v", off, stats)
		}
		if stats.BytesSkipped == 0 {
			t.Errorf("flip at +%d: no skipped bytes counted: %+v", off, stats)
		}
	}
}

func TestFrameGarbagePrefixAndBetween(t *testing.T) {
	var data []byte
	data = append(data, []byte("not a frame at all")...)
	data = appendFrame(data, KindAlert, []byte{1, 2, 3})
	data = append(data, 0xF1, 0x00, 0xDE, 0xAD) // stray near-magic garbage
	data = appendFrame(data, KindAlert, []byte{4, 5, 6})
	kinds, payloads, stats := collect(t, data)
	if len(kinds) != 2 || !bytes.Equal(payloads[0], []byte{1, 2, 3}) || !bytes.Equal(payloads[1], []byte{4, 5, 6}) {
		t.Fatalf("decoded %d frames (%x), want the 2 real ones", len(kinds), payloads)
	}
	if stats.Resyncs == 0 || stats.BytesSkipped == 0 {
		t.Errorf("garbage not accounted: %+v", stats)
	}
}

func TestFrameInsaneLength(t *testing.T) {
	// A frame header claiming a >16MiB payload is corrupt, not a torn
	// tail — the decoder must not wait for data that will never come.
	data := []byte{flightMagic[0], flightMagic[1], byte(KindCSI), 0xFF, 0xFF, 0xFF, 0xFF}
	data = append(data, bytes.Repeat([]byte{0}, 64)...)
	data = appendFrame(data, KindCSI, []byte{9})
	kinds, _, stats := collect(t, data)
	if len(kinds) != 1 || stats.Corrupt != 1 {
		t.Fatalf("kinds %v stats %+v, want 1 good frame and 1 corrupt", kinds, stats)
	}
}
