// Command simbench measures the PRESS simulator end to end on three
// closed-loop workloads, each driven by one client through the public
// functions of the simulator's modules, and checks the outputs it times.
//
//	bash simbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same ops untraced and then traced, and prints the per-layer
// metrics. The last line of standard output is one JSON object. See
// README.md for the workloads and a glossary of the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"press/internal/element"
)

const (
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps = 11
	// minOps is the fewest ops a timed phase completes: enough that ten
	// ops fall beyond the 90th percentile.
	minOps = 100
	// warmOps run untimed before each timed phase.
	warmOps = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wlName := flag.String("workload", "", "workload: sweep, mimo-loop or control-loop")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *wlName {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: simbench --workload sweep|mimo-loop|control-loop --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var info []string
	var err error
	if *trace == 0 {
		res, info, err = endToEnd(w, *seed, dur)
	} else {
		res, info, err = perLayer(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  ops %d  failed %d  correct %v\n", w.name, *seed, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, l := range info {
		fmt.Println("  info:", l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// phase is one timed run of ops over a freshly built scene set.
type phase struct {
	ops, failed, wrong int
	evals              []int // per op
	wall               time.Duration
	lat                []time.Duration
	gain               []float64 // per op; NaN where the op failed
	best               []element.Config
	allocBytes         uint64
	heapLive           uint64
	ctl                cpStats // control-plane counters over the phase
}

// run builds w's scenes and drives ops until at least d has passed and
// at least `least` ops are done. With tr set
// the ops are traced, and n collects the per-layer counts.
func run(w *workload, seed uint64, d time.Duration, least int, tr *tracer, n *counts) (*phase, error) {

	sc, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sc.close()
	for i := 0; i < warmOps; i++ {
		if _, err := sc.op(i); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	sc.trace(tr, n)
	p := &phase{}
	ctl0 := controlPlaneStats(sc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := warmOps; ; i++ {
		var t0 time.Time
		var v0 time.Duration
		if tr != nil {
			tr.op = i
			v0 = tr.now()
			tr.begin("op")
		} else {
			t0 = time.Now()
		}
		r, err := sc.op(i)
		var lat time.Duration
		if tr != nil {
			tr.end()
			lat = tr.now() - v0
			n.endOp()
		} else {
			lat = time.Since(t0)
		}
		p.ops++
		p.lat = append(p.lat, lat)
		p.evals = append(p.evals, r.evals)
		if err == nil {
			if cerr := sc.check(i, r); cerr != nil {
				err = cerr
				p.wrong++
			} else if w.deadline > 0 && lat > w.deadline {
				err = fmt.Errorf("loop took %v, past the %v coherence deadline", lat, w.deadline)
			}
		}
		if err != nil {
			p.failed++
			p.gain = append(p.gain, math.NaN())
			p.best = append(p.best, nil)
			if p.failed <= 3 {
				fmt.Fprintf(os.Stderr, "simbench: %s op %d: %v\n", w.name, i, err)
			}
		} else {
			p.gain = append(p.gain, r.gain)
			p.best = append(p.best, r.best)
		}
		if time.Since(start) >= d && p.ops >= least {
			break
		}
	}
	p.wall = time.Since(start)
	p.ctl = controlPlaneStats(sc).sub(ctl0)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapLive = m1.HeapAlloc
	runtime.KeepAlive(sc)
	return p, nil
}

// leastOps is the fewest ops an untraced timed phase runs: one pass over
// the pool, and never fewer than minOps.
func leastOps(w *workload) int { return max(minOps, w.pool) }

func endToEnd(w *workload, seed uint64, d time.Duration) (*result, []string, error) {
	setup := make([]float64, setupReps)
	for i := range setup {
		start := time.Now()
		sc, err := w.build(seed)
		setup[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		sc.close()
	}
	p, err := run(w, seed, d, leastOps(w), nil, nil)
	if err != nil {
		return nil, nil, err
	}
	ms := make([]float64, p.ops)
	rate := make([]float64, p.ops)
	for i, l := range p.lat {
		ms[i] = float64(l) / 1e6
		rate[i] = float64(p.evals[i]) / l.Seconds()
	}
	sort.Float64s(ms)
	sort.Float64s(rate)
	// Failed ops carry no gain; they show in op_ok_frac instead.
	var gain float64
	ok := 0
	for _, g := range p.gain[:w.pool] {
		if !math.IsNaN(g) {
			gain += g
			ok++
		}
	}
	if ok > 0 {
		gain /= float64(ok)
	}
	// Wall-clock figures swing with other tenants of the host, so they
	// are printed for reading but not gated; see README.md.
	info := []string{
		fmt.Sprintf("ops_per_s %.6g 1/s (wall clock)", float64(p.ops)/p.wall.Seconds()),
		fmt.Sprintf("op_ms_p50 %.6g ms, op_ms_p90 %.6g ms (over %d ops)", quantile(ms, 0.5), quantile(ms, 0.9), p.ops),
	}
	return &result{
		Correct: p.wrong == 0, Attempted: p.ops, Failed: p.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setup), "s"},
			"evals_per_s":     {quantile(rate, 0.9), "1/s"},
			"op_ms_p10":       {quantile(ms, 0.1), "ms"},
			"alloc_kb_per_op": {float64(p.allocBytes) / 1024 / float64(p.ops), "KiB"},
			"heap_live_mb":    {float64(p.heapLive) / (1 << 20), "MiB"},
			"op_ok_frac":      {1 - float64(p.failed)/float64(p.ops), "frac"},
			"gain_db":         {gain, "dB"},
		},
	}, info, nil
}

func perLayer(w *workload, seed uint64, d time.Duration) (*result, []string, error) {
	plain, err := run(w, seed, d/2, w.pool, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	n := &counts{}
	traced, err := run(w, seed, d/2, w.pool, tr, n)
	if err != nil {
		return nil, nil, err
	}
	ctl := traced.ctl

	// The traced ops must choose what the untraced ops chose, and the
	// common ops give the tracing overhead.
	common := min(plain.ops, traced.ops)
	wrong := 0
	plainMs := make([]float64, common)
	tracedMs := make([]float64, common)
	for i := 0; i < common; i++ {
		if !plain.best[i].Equal(traced.best[i]) {
			wrong++
		}
		plainMs[i] = float64(plain.lat[i])
		tracedMs[i] = float64(traced.lat[i])
	}
	sort.Float64s(plainMs)
	sort.Float64s(tracedMs)
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "simbench: %d traced ops chose another config than untraced\n", wrong)
	}

	radioAlloc, obsAlloc, err := allocProbes(w, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.writeChrome(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))); err != nil {
		return nil, nil, err
	}

	shares := tr.layerShares()
	layers := make([]string, 0, len(shares))
	coverage := 0.0
	for l, sh := range shares {
		layers = append(layers, l)
		coverage += sh
	}
	sort.Strings(layers)
	var info []string
	for _, l := range layers {
		info = append(info, fmt.Sprintf("%s self time %.1f%% of traced op time", l, 100*shares[l]))
	}
	info = append(info, fmt.Sprintf("trace file holds %d spans; %d more were counted but not kept", len(tr.spans), tr.drops))
	ops := float64(traced.ops)
	evals := float64(n.evals)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	failed := plain.failed + traced.failed
	attempted := plain.ops + traced.ops
	return &result{
		Correct: plain.wrong == 0 && traced.wrong == 0 && wrong == 0, Attempted: attempted, Failed: failed + wrong,
		Metrics: map[string]metric{
			"propagation.response_us_per_eval": {us(tr.dur("propagation.Response")) / evals, "us"},
			"propagation.path_terms_per_eval":  {float64(n.pathTerms) / evals, "count"},
			"propagation.trace_ms_per_op":      {us(n.traceTime) / 1e3 / ops, "ms"},
			"element.paths_us_per_eval":        {us(tr.dur("element.Paths")) / evals, "us"},
			"radio.measure_self_us_per_eval":   {us(tr.self("radio.MeasureCSI")) / evals, "us"},
			"radio.alloc_kb_per_eval":          {radioAlloc, "KiB"},
			"control.score_us_per_eval":        {us(tr.dur("control.Score")) / evals, "us"},
			"control.search_self_us_per_op":    {us(tr.self("control.Search")) / ops, "us"},
			"control.evals_per_op":             {evals / ops, "count"},
			"control.distinct_eval_frac":       {frac(float64(n.distinct), float64(n.searchEvals)), "frac"},
			"inverse.solve_ms_per_op":          {us(tr.dur("inverse.Solve")) / 1e3 / ops, "ms"},
			"mimo.channel_us_per_eval":         {us(tr.dur("radio.MeasureAveraged")) / evals, "us"},
			"mimo.cond_us_per_eval":            {us(tr.dur("mimo.CondProfileDB")) / evals, "us"},
			"controlplane.setconfig_us_p50":    {us(medianDur(tr.kept)), "us"},
			"controlplane.ack_ok_frac":         {frac(float64(ctl.acked), float64(ctl.sent)), "frac"},
			"controlplane.dropped_per_op":      {float64(ctl.dropped) / ops, "count"},
			"obs.alloc_kb_per_op":              {obsAlloc, "KiB"},
			"trace.coverage_frac":              {coverage, "frac"},
			"trace.overhead_frac":              {quantile(tracedMs, 0.1)/quantile(plainMs, 0.1) - 1, "frac"},
			"op_fail_frac":                     {float64(failed+wrong) / float64(attempted), "frac"},
		},
	}, info, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the p-quantile of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := p * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
