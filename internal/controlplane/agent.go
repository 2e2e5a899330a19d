package controlplane

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/scope"
)

// Agent is the element-side endpoint: it owns a PRESS array, applies
// validated SetConfig commands, and answers Query/Ping. One agent can
// serve many controller connections (e.g. a handover between
// semi-centralized controllers).
type Agent struct {
	ID    uint32
	Array *element.Array
	// OnApply, when set, is invoked after each successful actuation —
	// the hook the simulator uses to re-point the radio model, and real
	// hardware would use to drive the RF switches.
	OnApply func(cfg element.Config)
	// ActuationDelay models RF-switch settling time before the Ack.
	ActuationDelay time.Duration

	sc *scope.Scope

	mu      sync.Mutex
	current element.Config
}

// NewAgent builds an agent with every element initially in state 0.
func NewAgent(id uint32, arr *element.Array) *Agent {
	return &Agent{ID: id, Array: arr, current: make(element.Config, arr.N())}
}

// AttachScope points the agent's telemetry at a session scope: handled
// frames by type on its registry (agent_* counters), a Debug record per
// applied configuration on its logger, and every successful actuation
// to its health monitor (the control_staleness_s KPI). A nil scope
// detaches. Attach before Serve: the scope is read unsynchronized.
func (a *Agent) AttachScope(sc *scope.Scope) { a.sc = sc }

// Current returns a copy of the applied configuration.
func (a *Agent) Current() element.Config {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current.Clone()
}

// Serve handles one controller connection until the context is cancelled
// or the connection fails. It sends a Hello first, then answers requests.
func (a *Agent) Serve(ctx context.Context, conn Conn) error {
	if err := conn.Send(0, 0, &Hello{AgentID: a.ID, NumElements: uint16(a.Array.N())}); err != nil {
		return fmt.Errorf("controlplane: hello: %w", err)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Poll with a short deadline so cancellation is honoured even on
		// an idle connection.
		_ = conn.SetRecvDeadline(time.Now().Add(50 * time.Millisecond))
		seq, trace, msg, err := conn.Recv()
		if err != nil {
			var to interface{ Timeout() bool }
			if errors.As(err, &to) && to.Timeout() {
				continue
			}
			if errors.Is(err, ErrBadCRC) {
				continue // corrupted frame: drop it, stay alive
			}
			return err
		}
		if err := a.handle(conn, seq, trace, msg); err != nil {
			return err
		}
	}
}

// handle dispatches one request. The request's trace ID is echoed on
// every reply and, when the registry carries a TraceLog, the handling
// time is recorded as an "agent"-track span under the same ID — the
// agent half of the controller's send→ack pair.
func (a *Agent) handle(conn Conn, seq uint32, trace uint64, msg Message) error {
	reg := a.sc.Registry()
	reg.Counter("agent_frames_total").Inc()
	var start time.Time
	tl := reg.TraceLog()
	if tl != nil {
		start = time.Now()
	}
	span := func(name string) {
		if tl != nil {
			tl.Record("agent", name, trace, start, time.Since(start),
				map[string]any{"seq": seq, "agent_id": a.ID})
		}
	}
	switch m := msg.(type) {
	case *SetConfig:
		reg.Counter("agent_setconfig_total").Inc()
		cfg := make(element.Config, len(m.States))
		for i, s := range m.States {
			cfg[i] = int(s)
		}
		if err := a.Array.Validate(cfg); err != nil {
			reg.Counter("agent_rejects_total").Inc()
			err := conn.Send(seq, trace, &Ack{AckSeq: seq, Status: StatusBadConfig})
			span("controlplane/set-config")
			return err
		}
		if a.ActuationDelay > 0 {
			time.Sleep(a.ActuationDelay)
		}
		a.mu.Lock()
		a.current = cfg
		a.mu.Unlock()
		if a.OnApply != nil {
			a.OnApply(cfg.Clone())
		}
		a.sc.Health().ObserveActuation()
		if log := a.sc.Logger(); log.Enabled(obs.LevelDebug) {
			log.Debug("agent: applied configuration", "seq", seq, "trace", trace, "elements", len(cfg))
		}
		err := conn.Send(seq, trace, &Ack{AckSeq: seq, Status: StatusOK})
		span("controlplane/set-config")
		return err
	case *Query:
		reg.Counter("agent_queries_total").Inc()
		cur := a.Current()
		states := make([]uint8, len(cur))
		for i, s := range cur {
			states[i] = uint8(s)
		}
		err := conn.Send(seq, trace, &Report{States: states})
		span("controlplane/query")
		return err
	case *Ping:
		reg.Counter("agent_pings_total").Inc()
		err := conn.Send(seq, trace, &Pong{T: m.T})
		span("controlplane/ping")
		return err
	case *Hello:
		// A Hello *request* is a discovery probe (datagram controllers
		// have no stream handshake); answer with our identity.
		reg.Counter("agent_hellos_total").Inc()
		err := conn.Send(seq, trace, &Hello{AgentID: a.ID, NumElements: uint16(a.Array.N())})
		span("controlplane/probe")
		return err
	default:
		// Unknown or unexpected messages are ignored: a controller
		// restart may replay, and robustness beats strictness here.
		return nil
	}
}

// ListenAndServe accepts controller connections on l until ctx is done,
// serving each in its own goroutine. It is the agent-side entry point of
// cmd/pressctl.
func (a *Agent) ListenAndServe(ctx context.Context, l net.Listener) error {
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			_ = a.Serve(ctx, NewStreamConn(c))
		}()
	}
}
