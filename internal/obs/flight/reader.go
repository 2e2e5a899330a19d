package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Run is a fully decoded run log.
type Run struct {
	Dir        string            `json:"dir,omitempty"`
	Manifest   *Manifest         `json:"manifest,omitempty"`
	Actuations []Actuation       `json:"actuations,omitempty"`
	CSI        []CSISample       `json:"csi,omitempty"`
	KPIs       []KPISample       `json:"kpis,omitempty"`
	Alerts     []AlertTransition `json:"alerts,omitempty"`
	Decisions  []SearchDecision  `json:"decisions,omitempty"`
	Runtime    []RuntimeSample   `json:"runtime,omitempty"`
	PhaseCosts []PhaseCost       `json:"phase_costs,omitempty"`
	Loops      []LoopRecord      `json:"loops,omitempty"`
	Stats      DecodeStats       `json:"stats"`
}

// segments lists a run directory's segment files in write order.
func segments(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.flr"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// ReadRun decodes every segment of the run directory. Torn tails and
// corrupt frames are tolerated and tallied in Stats; only I/O failures
// and a directory with no segments are errors.
func ReadRun(dir string) (*Run, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("flight: no segment files in %s", dir)
	}
	run := &Run{Dir: dir}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		stats, _ := decodeFrames(data, func(kind Kind, payload []byte) error {
			run.apply(kind, payload)
			return nil
		})
		run.Stats.Add(stats)
	}
	return run, nil
}

// apply folds one decoded frame into the run; payloads that fail their
// record-level decode count as corrupt.
func (run *Run) apply(kind Kind, payload []byte) {
	switch kind {
	case KindManifest:
		m, err := decodeManifest(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		if run.Manifest == nil { // first manifest wins
			run.Manifest = m
		}
	case KindActuation:
		a, err := decodeActuation(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.Actuations = append(run.Actuations, a)
	case KindCSI:
		c, err := decodeCSI(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.CSI = append(run.CSI, c)
	case KindKPI:
		k, err := decodeKPI(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.KPIs = append(run.KPIs, k)
	case KindAlert:
		a, err := decodeAlert(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.Alerts = append(run.Alerts, a)
	case KindDecision:
		d, err := decodeDecision(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.Decisions = append(run.Decisions, d)
	case KindRuntime:
		s, err := decodeRuntime(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.Runtime = append(run.Runtime, s)
	case KindPhaseCost:
		p, err := decodePhaseCost(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.PhaseCosts = append(run.PhaseCosts, p)
	case KindLoop:
		l, err := decodeLoop(payload)
		if err != nil {
			run.Stats.Corrupt++
			return
		}
		run.Loops = append(run.Loops, l)
	default:
		run.Stats.Unknown++
	}
}

// ReadManifest decodes only the run's manifest — the cheap path the
// /runs listing uses. It scans the first segment and stops at the first
// manifest frame.
func ReadManifest(dir string) (*Manifest, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("flight: no segment files in %s", dir)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		return nil, err
	}
	var found *Manifest
	errStop := fmt.Errorf("stop")
	_, _ = decodeFrames(data, func(kind Kind, payload []byte) error {
		if kind != KindManifest {
			return nil
		}
		m, err := decodeManifest(payload)
		if err != nil {
			return nil
		}
		found = m
		return errStop
	})
	if found == nil {
		return nil, fmt.Errorf("flight: no manifest in %s", dir)
	}
	return found, nil
}

// ListRuns reads the manifest of every run directory under root,
// newest-first by start time. Directories without a decodable manifest
// are skipped.
func ListRuns(root string) ([]*Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := ReadManifest(filepath.Join(root, e.Name()))
		if err != nil {
			continue
		}
		if m.RunID == "" {
			m.RunID = e.Name()
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNs > out[j].StartUnixNs })
	return out, nil
}

// FindRun locates the newest run under root belonging to the given
// session: a run whose manifest session tag (SessionParamKey) equals
// session, falling back to a scenario-name match for untagged runs. It
// returns the run directory and its manifest — how `pressctl replay
// -session` and `rundiff -session` pick one session's run out of a
// shared -flight-dir.
func FindRun(root, session string) (string, *Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return "", nil, err
	}
	var bestDir string
	var best *Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		m, err := ReadManifest(dir)
		if err != nil {
			continue
		}
		if m.Session() != session && m.Scenario != session {
			continue
		}
		if best == nil || m.StartUnixNs > best.StartUnixNs {
			best, bestDir = m, dir
		}
	}
	if best == nil {
		return "", nil, fmt.Errorf("flight: no run for session %q under %s", session, root)
	}
	return bestDir, best, nil
}
