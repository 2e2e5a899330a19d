package main

import (
	"runtime"

	"press/internal/radio"
)

// cpStats are control-plane counters summed over a workload's rooms.
type cpStats struct{ sent, acked, dropped int64 }

func (a cpStats) sub(b cpStats) cpStats {
	return cpStats{a.sent - b.sent, a.acked - b.acked, a.dropped - b.dropped}
}

// controlPlaneStats reads the controllers' protocol counters and the
// losses of both pipe ends; zero for workloads without a control plane.
func controlPlaneStats(sc scenes) cpStats {
	cs, ok := sc.(*controlScenes)
	if !ok {
		return cpStats{}
	}
	var s cpStats
	for _, c := range cs.conns {
		s.sent += c.ctrl.Stats.Sent.Load()
		s.acked += c.ctrl.Stats.Acked.Load()
		for _, end := range c.ends {
			if d, ok := end.(interface{ Dropped() int }); ok {
				s.dropped += int64(d.Dropped())
			}
		}
	}
	return s
}

const (
	radioProbeEvals = 256
	obsProbeLoops   = 20
)

// allocProbes measures, on freshly built scenes, the KiB one MeasureCSI
// call allocates and, on control-loop, the KiB a loop allocates with the
// rooms' telemetry scopes attached beyond what it allocates without them.
func allocProbes(w *workload, seed uint64) (radioKiB, obsKiB float64, err error) {
	sc, err := w.build(seed)
	if err != nil {
		return 0, 0, err
	}
	defer sc.close()
	var link *radio.Link
	switch s := sc.(type) {
	case *sweepScenes:
		link = s.evals[0].link
	case *controlScenes:
		link = s.rooms[0].ev.link
	}
	if link != nil {
		n := link.Array.NumConfigs()
		radioKiB, err = allocKiB(radioProbeEvals, func(i int) error {
			_, err := link.MeasureCSI(link.Array.ConfigAt(i%n), 0)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
	}
	if _, ok := sc.(*controlScenes); !ok {
		return radioKiB, 0, nil
	}
	var perLoop [2]float64
	for k, scoped := range []bool{true, false} {
		cs, err := buildRooms(seed, scoped)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < warmOps; i++ {
			if _, err := cs.op(i); err != nil {
				cs.close()
				return 0, 0, err
			}
		}
		perLoop[k], err = allocKiB(obsProbeLoops, func(i int) error {
			_, err := cs.op(warmOps + i)
			return err
		})
		cs.close()
		if err != nil {
			return 0, 0, err
		}
	}
	return radioKiB, perLoop[0] - perLoop[1], nil
}

// allocKiB returns the KiB allocated per call of f over n calls.
func allocKiB(n int, f func(i int) error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), nil
}
