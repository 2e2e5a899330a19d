package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"press/internal/control"
	"press/internal/controlplane"
	"press/internal/element"
	"press/internal/experiments"
	"press/internal/geom"
	"press/internal/inverse"
	"press/internal/obs/scope"
	"press/internal/propagation"
	"press/internal/radio"
	"press/internal/rfphys"
)

// opResult is what one op produced, for the output checks and metrics.
type opResult struct {
	best  element.Config
	gain  float64 // best score minus the all-terminated baseline score
	evals int
}

// scenes is a workload's scene set: built once in set-up, then driven
// one op at a time by a single client.
type scenes interface {
	// op runs op i. Ops are deterministic: op i does the same work and
	// gives the same result in every run with the same seed.
	op(i int) (opResult, error)
	// check verifies op i's outputs beyond the checks op makes itself.
	check(i int, r opResult) error
	// trace points every evaluator at tr (nil turns tracing off) and
	// counts into n.
	trace(tr *tracer, n *counts)
	close()
}

type workload struct {
	name string
	// pool is the number of scenes the ops cycle through. A timed phase
	// runs at least one pass over the pool, and gain_db averages that
	// first pass, so every scene weighs the same in it.
	pool  int
	build func(seed uint64) (scenes, error)
	// deadline, when set, fails every op that takes longer.
	deadline time.Duration
}

var workloads = []workload{
	{name: "sweep", pool: sweepPool, build: buildSweep},
	{name: "mimo-loop", pool: mimoPool, build: buildMIMO},
	{name: "control-loop", pool: controlPool, build: buildControl,
		deadline: control.CoherenceTimeAtSpeed(walkMph, carrierHz)},
}

const (
	sweepPool   = 256 // placements cycled by sweep
	mimoPool    = 320 // placements cycled by mimo-loop
	controlPool = 512 // rooms cycled by control-loop
	connections = 2   // control-plane connections of control-loop
	mimoBudget  = 48
	mimoSnaps   = 50
	walkMph     = 0.5
	carrierHz   = 2.462e9
	numElements = 4
)

// placementSeeds derives n scene seeds from the workload seed.
func placementSeeds(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// allTerminated is the no-PRESS baseline configuration.
func allTerminated(arr *element.Array) (element.Config, error) {
	cfg, ok := arr.AllTerminated()
	if !ok {
		return nil, fmt.Errorf("array has an element without a terminate state")
	}
	return cfg, nil
}

// sweep: exhaustive MaxMinSNR sweeps of 4-element SP4T parabolic arrays
// on the paper's static NLoS link.

type sweepScenes struct {
	evals []*sisoEval
	base  []element.Config
}

func buildSweep(seed uint64) (scenes, error) {
	s := &sweepScenes{}
	for _, ps := range placementSeeds(seed, sweepPool) {
		scen := experiments.DefaultSISO(ps)
		scen.NumElements = numElements
		link, err := scen.Build()
		if err != nil {
			return nil, err
		}
		base, err := allTerminated(link.Array)
		if err != nil {
			return nil, err
		}
		s.evals = append(s.evals, newSISOEval(link, radio.Timing{}))
		s.base = append(s.base, base)
	}
	return s, nil
}

func (s *sweepScenes) op(i int) (opResult, error) {
	ev := s.evals[i%len(s.evals)]
	baseline, err := ev.eval(s.base[i%len(s.base)])
	if err != nil {
		return opResult{}, err
	}
	ev.n.beginSearch()
	ev.tr.begin("control.Search")
	res, err := control.Exhaustive{}.Search(ev.link.Array, ev.eval, 0)
	ev.tr.end()
	if err != nil {
		return opResult{}, err
	}
	return opResult{best: res.Best, gain: res.BestScore - baseline, evals: res.Evaluations + 1}, nil
}

func (s *sweepScenes) check(i int, r opResult) error {
	ev := s.evals[i%len(s.evals)]
	return checkSISO(ev.link, r.best, ev.now.Seconds())
}

func (s *sweepScenes) trace(tr *tracer, n *counts) {
	for _, ev := range s.evals {
		ev.tr, ev.n = tr, n
	}
}

func (s *sweepScenes) close() {}

// mimo-loop: greedy searches for the best-conditioned 4×4 channel.

type mimoScenes struct {
	seed  uint64
	evals []*mimoEval
	base  []element.Config
}

func buildMIMO(seed uint64) (scenes, error) {
	s := &mimoScenes{seed: seed}
	for _, ps := range placementSeeds(seed, mimoPool) {
		scen := experiments.DefaultMIMO(ps)
		scen.NumElements = numElements
		scen.Dim = 4
		link, err := scen.Build()
		if err != nil {
			return nil, err
		}
		base, err := allTerminated(link.Array)
		if err != nil {
			return nil, err
		}
		s.evals = append(s.evals, newMIMOEval(link))
		s.base = append(s.base, base)
	}
	return s, nil
}

func (s *mimoScenes) op(i int) (opResult, error) {
	ev := s.evals[i%len(s.evals)]
	baseline, err := ev.eval(s.base[i%len(s.base)])
	if err != nil {
		return opResult{}, err
	}
	// Restarts until the budget is spent, so every op measures the same
	// number of configurations.
	g := control.Greedy{Rng: rand.New(rand.NewPCG(s.seed, uint64(i))), Restarts: mimoBudget}
	ev.n.beginSearch()
	ev.tr.begin("control.Search")
	res, err := g.Search(ev.link.Array, ev.eval, mimoBudget)
	ev.tr.end()
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return opResult{}, err
	}
	return opResult{best: res.Best, gain: res.BestScore - baseline, evals: res.Evaluations + 1}, nil
}

func (s *mimoScenes) check(i int, r opResult) error {
	ev := s.evals[i%len(s.evals)]
	return checkMIMO(ev.link, r.best, 0)
}

func (s *mimoScenes) trace(tr *tracer, n *counts) {
	for _, ev := range s.evals {
		ev.tr, ev.n = tr, n
	}
}

func (s *mimoScenes) close() {}

// control-loop: model-guided control loops in rooms whose receiver walks.
// Rooms outnumber control-plane connections: room r is actuated through
// connection r%2, so at most two agents are ever busy, while the many
// rooms keep the workload's averages from hanging on two geometries.

// wiredTiming is a wired control medium: 1 ms to sound the channel,
// 100 µs to actuate the array.
var wiredTiming = radio.Timing{PerMeasurement: time.Millisecond, SwitchLatency: 100 * time.Microsecond}

type room struct {
	ev       *sisoEval
	base     element.Config
	problem  *inverse.Problem
	sc       *scope.Scope
	searcher control.Searcher
}

// connection is one controller–agent pair over an in-memory wired pipe.
type connection struct {
	ctrl   *controlplane.Controller
	ends   [2]controlplane.Conn
	cancel context.CancelFunc
	served chan struct{}
}

type controlScenes struct {
	rooms  []*room
	conns  []*connection
	budget int
}

func buildControl(seed uint64) (scenes, error) { return buildRooms(seed, true) }

// buildRooms builds the control-loop rooms and connections; scoped
// attaches a telemetry scope to each room, as the workload does.
func buildRooms(seed uint64, scoped bool) (*controlScenes, error) {
	s := &controlScenes{budget: control.CoherenceBudgetAtSpeed(walkMph, carrierHz, wiredTiming)}
	for k, ps := range placementSeeds(seed, controlPool) {
		r, err := buildRoom(k, ps, scoped)
		if err != nil {
			s.close()
			return nil, err
		}
		s.rooms = append(s.rooms, r)
	}
	for k := 0; k < connections; k++ {
		c, err := connect(uint32(k+1), s.rooms[k].ev.link.Array, seed+uint64(k))
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func buildRoom(k int, seed uint64, scoped bool) (*room, error) {
	var sc *scope.Scope
	if scoped {
		var err error
		sc, err = scope.New(fmt.Sprintf("room-%d", k), nil, scope.Config{
			PhaseAccounting: true, Health: true,
			LoopDeadline: control.CoherenceTimeAtSpeed(walkMph, carrierHz),
		})
		if err != nil {
			return nil, err
		}
	}
	scen := experiments.DefaultSISO(seed)
	scen.NumElements = numElements
	scen.Scope = sc
	link, err := scen.Build()
	if err != nil {
		sc.Close()
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xfa17))
	stuck := rng.IntN(numElements)
	link.Faults = element.Faults{stuck: {Kind: element.StuckAt, State: rng.IntN(link.Array.Elements[stuck].NumStates())}}
	link.RX.Node.Velocity = geom.V(rfphys.MphToMps(walkMph), 0, 0)
	link.InvalidateEnvironment()
	base, err := allTerminated(link.Array)
	if err != nil {
		sc.Close()
		return nil, err
	}
	// The model is the healthy array: the controller does not know which
	// element is stuck.
	p := &inverse.Problem{Env: link.Env, TX: link.TX.Node, RX: link.RX.Node, Array: link.Array, Grid: link.Grid}
	return &room{
		ev: newSISOEval(link, wiredTiming), base: base, problem: p, sc: sc,
		searcher: control.InstrumentScope(control.ModelGuided{Problem: p}, sc),
	}, nil
}

// connect starts an agent for arrays shaped like arr and hands back the
// controller, after the handshake.
func connect(id uint32, arr *element.Array, seed uint64) (*connection, error) {
	ctx, cancel := context.WithCancel(context.Background())
	a, b := controlplane.NewLossyPipe(controlplane.LossyConfig{Seed: seed})
	agent := controlplane.NewAgent(id, arr)
	c := &connection{ctrl: controlplane.NewController(b), ends: [2]controlplane.Conn{a, b},
		cancel: cancel, served: make(chan struct{})}
	go func() {
		defer close(c.served)
		_ = agent.Serve(ctx, a) // ends with ctx or the pipe; close waits for it
	}()
	hctx, hcancel := context.WithTimeout(ctx, 2*time.Second)
	defer hcancel()
	if err := c.ctrl.Handshake(hctx); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *connection) close() {
	c.cancel()
	c.ends[0].Close()
	c.ends[1].Close()
	<-c.served
}

func (s *controlScenes) op(i int) (opResult, error) {
	r := s.rooms[i%len(s.rooms)]
	ctrl := s.conns[i%len(s.conns)].ctrl
	ctrl.AttachScope(r.sc)
	ev, tr := r.ev, r.ev.tr
	ev.ctrl = ctrl
	traces := r.sc.Registry().Counter("propagation_traces_total")
	traces0 := traces.Value()
	loop := r.sc.Tracer().StartLoop("simbench")
	defer loop.End()
	baseline, err := ev.eval(r.base)
	if err != nil {
		return opResult{}, err
	}
	ev.n.beginSearch()
	tr.begin("control.Search")
	res, err := r.searcher.Search(ev.link.Array, ev.eval, s.budget)
	nTraces := traces.Value() - traces0
	if tr != nil && err == nil {
		shadowInverse(tr, r.problem)
		d := tr.offClock(func() { propagation.TracePaths(r.problem.Env, r.problem.TX, r.problem.RX, ev.link.Wavelength()) })
		ev.n.traceTime += time.Duration(nTraces) * d
	}
	tr.end()
	if err != nil && !errors.Is(err, control.ErrBudgetExhausted) {
		return opResult{}, err
	}
	tr.begin("controlplane.SetConfig")
	err = ctrl.SetConfig(context.Background(), res.Best)
	tr.end()
	if err != nil {
		return opResult{}, err
	}
	return opResult{best: res.Best, gain: res.BestScore - baseline, evals: res.Evaluations + 1}, nil
}

// shadowInverse repeats the inverse solve ModelGuided runs, on the same
// problem and its default flat target, under a shadow. The baseline that
// builds the target is computed off the clock: ModelGuided's own
// baseline call stays in the search's self time.
func shadowInverse(tr *tracer, p *inverse.Problem) {
	var target []complex128
	tr.offClock(func() {
		base := p.Baseline()
		var ss float64
		for _, h := range base {
			ss += real(h)*real(h) + imag(h)*imag(h)
		}
		target = inverse.TargetFlat(base, math.Sqrt(ss/float64(len(base))))
	})
	tr.shadow("inverse.Solve", func() { _, _ = inverse.Solve(p, target) })
}

func (s *controlScenes) check(i int, res opResult) error {
	r := s.rooms[i%len(s.rooms)]
	got, err := s.conns[i%len(s.conns)].ctrl.QueryConfig(context.Background())
	if err != nil {
		return err
	}
	if !got.Equal(res.best) {
		return fmt.Errorf("agent holds %v, searcher chose %v", got, res.best)
	}
	return checkSISO(r.ev.link, res.best, r.ev.now.Seconds())
}

func (s *controlScenes) trace(tr *tracer, n *counts) {
	for _, r := range s.rooms {
		r.ev.tr, r.ev.n = tr, n
	}
}

func (s *controlScenes) close() {
	for _, c := range s.conns {
		c.close()
	}
	for _, r := range s.rooms {
		r.sc.Close()
	}
}
