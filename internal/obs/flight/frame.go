// Package flight is the durable flight recorder behind every PRESS
// binary: an append-only, crash-safe run log of everything the control
// loop did — the run manifest (seeds, parameters, build provenance),
// element actuations, CSI/KPI samples, alert transitions, and search
// decisions — plus the decode/summary/diff machinery that turns a log
// back into an auditable, replayable, comparable run.
//
// Where internal/obs and internal/obs/health are live telemetry (they
// die with the process), flight persists: a run recorded today can be
// replayed tomorrow (`pressctl replay`) or diffed against last week
// (`pressctl rundiff`). The wire format is a sequence of CRC32C-framed,
// length-prefixed binary records in size-rotated segment files; the
// decoder tolerates torn tails (a truncated final record after a crash)
// and resynchronizes past corrupt frames instead of aborting.
package flight

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame layout (little-endian):
//
//	offset size
//	0      2    magic (0xF1 0x7E for the flight log)
//	2      1    record kind
//	3      4    payload length
//	7      n    payload
//	7+n    4    CRC32C (Castagnoli) over kind+length+payload
//
// The magic prefix exists purely so the decoder can resynchronize after
// a corrupt frame by scanning forward; the CRC is what actually
// validates a frame. The tsdb store frames its segments with this codec
// under a magic of its own.
const (
	FrameHeaderLen  = 7  // magic + kind + length
	frameOverhead   = 11 // header + trailing CRC
	maxFramePayload = 1 << 24
)

// FrameMagic is the 2-byte prefix that opens every frame of one file
// format. Formats differ in magic so a segment misfiled into another
// format's directory reads as zero frames, not garbage data.
type FrameMagic [2]byte

// flightMagic opens every flight-log frame.
var flightMagic = FrameMagic{0xF1, 0x7E}

// castagnoli is the CRC32C table (the same polynomial iSCSI and modern
// storage formats use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one record framed under magic m to dst and
// returns the extended slice. It allocates only when dst must grow.
func AppendFrame(dst []byte, m FrameMagic, kind byte, payload []byte) []byte {
	dst = append(dst, m[0], m[1], kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Update(0, castagnoli, dst[len(dst)-len(payload)-5:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// appendFrame frames one flight-log record.
func appendFrame(dst []byte, kind Kind, payload []byte) []byte {
	return AppendFrame(dst, flightMagic, byte(kind), payload)
}

// DecodeStats reports what a decode pass encountered. Corruption is
// counted, never fatal: a flight log is most valuable exactly when the
// process that wrote it died badly.
type DecodeStats struct {
	// Frames is the number of valid frames decoded (including unknown
	// kinds, which are skipped but counted).
	Frames int `json:"frames"`
	// Unknown counts valid frames whose kind this decoder does not know
	// (written by a newer format revision).
	Unknown int `json:"unknown,omitempty"`
	// Corrupt counts frames abandoned on a CRC mismatch or an insane
	// length field.
	Corrupt int `json:"corrupt,omitempty"`
	// Resyncs counts forward scans for the next frame magic after a
	// corrupt frame or stray bytes.
	Resyncs int `json:"resyncs,omitempty"`
	// BytesSkipped totals the bytes discarded while resynchronizing.
	BytesSkipped int64 `json:"bytes_skipped,omitempty"`
	// TornTail records that the data ended mid-frame — the expected
	// signature of a crash between group commits.
	TornTail bool `json:"torn_tail,omitempty"`
}

// Add folds another decode pass's counts into s.
func (s *DecodeStats) Add(o DecodeStats) {
	s.Frames += o.Frames
	s.Unknown += o.Unknown
	s.Corrupt += o.Corrupt
	s.Resyncs += o.Resyncs
	s.BytesSkipped += o.BytesSkipped
	s.TornTail = s.TornTail || o.TornTail
}

// DecodeFrames walks data emitting every valid frame's kind and
// payload under magic m. It never fails on corruption: CRC mismatches
// and garbage bytes are skipped with a resync scan for the next magic,
// and a truncated final frame is reported as a torn tail. emit
// returning an error aborts the walk (that error is the caller's, not
// the data's).
func DecodeFrames(data []byte, m FrameMagic, emit func(kind byte, payload []byte) error) (DecodeStats, error) {
	var stats DecodeStats
	pos := 0
	resync := func(from int) int {
		stats.Resyncs++
		for i := from; i+1 < len(data); i++ {
			if data[i] == m[0] && data[i+1] == m[1] {
				stats.BytesSkipped += int64(i - pos)
				return i
			}
		}
		stats.BytesSkipped += int64(len(data) - pos)
		return len(data)
	}
	for pos < len(data) {
		if data[pos] != m[0] || pos+1 >= len(data) || data[pos+1] != m[1] {
			pos = resync(pos + 1)
			continue
		}
		if pos+FrameHeaderLen > len(data) {
			// A magic with no room even for a header at the very end of
			// the data: a torn header.
			stats.TornTail = true
			stats.BytesSkipped += int64(len(data) - pos)
			return stats, nil
		}
		kind := data[pos+2]
		n := int(binary.LittleEndian.Uint32(data[pos+3 : pos+7]))
		if n > maxFramePayload {
			stats.Corrupt++
			pos = resync(pos + 2)
			continue
		}
		end := pos + frameOverhead + n
		if end > len(data) {
			// Plausible header but the payload runs past the end: either
			// the torn tail of a crashed writer or a corrupted length
			// field. Scan ahead to tell them apart — if another frame
			// magic follows, the length was corrupt; if the data just
			// ends, this was the tail.
			next := resync(pos + 2)
			if next >= len(data) {
				stats.TornTail = true
				return stats, nil
			}
			stats.Corrupt++
			pos = next
			continue
		}
		want := binary.LittleEndian.Uint32(data[end-4 : end])
		if crc32.Checksum(data[pos+2:end-4], castagnoli) != want {
			stats.Corrupt++
			pos = resync(pos + 2)
			continue
		}
		stats.Frames++
		if err := emit(kind, data[pos+FrameHeaderLen:end-4]); err != nil {
			return stats, err
		}
		pos = end
	}
	return stats, nil
}

// decodeFrames decodes flight-log frames.
func decodeFrames(data []byte, emit func(kind Kind, payload []byte) error) (DecodeStats, error) {
	return DecodeFrames(data, flightMagic, func(kind byte, payload []byte) error {
		return emit(Kind(kind), payload)
	})
}
