package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// Stats counts controller-side protocol events, for the latency/loss
// reporting the design-space exploration needs.
type Stats struct {
	Sent      atomic.Int64
	Acked     atomic.Int64
	Retries   atomic.Int64
	Rejected  atomic.Int64
	Timeouts  atomic.Int64
	CRCErrors atomic.Int64
}

// Controller is the controller-side endpoint: it actuates a remote agent
// with at-least-once retransmission and matches acknowledgements by
// sequence number, tolerating the loss and corruption the simulated
// control channels inject.
//
// Every request is tagged with a fresh trace ID that rides the frame
// header, is echoed back by the agent, and — when the registry carries a
// TraceLog — becomes a matched pair of "controller" and "agent" timeline
// spans, so a whole session renders as a distributed trace.
type Controller struct {
	conn Conn
	// Timeout is the per-attempt ack deadline (default 100 ms).
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt
	// (default 4).
	Retries int
	// Stats accumulates protocol counters.
	Stats Stats

	sc  *scope.Scope
	seq atomic.Uint32
	// agentID and numElements are learned from the agent's Hello.
	agentID     uint32
	numElements int
	helloSeen   bool
}

// NewController wraps a connection. Call Handshake before actuating.
func NewController(conn Conn) *Controller {
	return &Controller{conn: conn, Timeout: 100 * time.Millisecond, Retries: 4}
}

// AttachScope points the controller's telemetry at a session scope.
// Its registry mirrors Stats and adds the latency histograms (ack
// latency, ping RTT) the atomic counters cannot carry; a registry with
// an attached TraceLog also records one send→ack span per completed
// request. Its logger receives protocol events (retries, give-ups), its
// phase collector accounts actuation round trips to the actuate phase,
// and its loop tracer hooks actuation into the control-loop iteration
// in flight: SetConfig reuses the loop's trace ID on the frame header
// (so controller/agent timeline spans and the loop's span tree share
// one key) and attaches "actuate" and "ack" child spans to the loop. A
// nil scope detaches; each event then costs one pointer check.
func (c *Controller) AttachScope(sc *scope.Scope) { c.sc = sc }

// ErrRejected means the agent refused the configuration.
var ErrRejected = errors.New("controlplane: agent rejected configuration")

// traceSpan records one completed controller-side round trip onto the
// registry's trace log (no-op without one).
func (c *Controller) traceSpan(name string, trace uint64, start time.Time, args map[string]any) {
	tl := c.sc.Registry().TraceLog()
	if tl == nil {
		return
	}
	tl.Record("controller", name, trace, start, time.Since(start), args)
}

// Handshake waits for the agent's Hello and records its array size.
func (c *Controller) Handshake(ctx context.Context) error {
	deadline := time.Now().Add(c.Timeout * time.Duration(c.Retries+1))
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = c.conn.SetRecvDeadline(deadline)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, _, msg, err := c.conn.Recv()
		if err != nil {
			return fmt.Errorf("controlplane: handshake: %w", err)
		}
		if h, ok := msg.(*Hello); ok {
			c.agentID = h.AgentID
			c.numElements = int(h.NumElements)
			c.helloSeen = true
			return nil
		}
		// Skip anything stale until the Hello arrives.
	}
}

// Probe discovers the agent over a datagram transport, where the agent
// cannot announce itself: send a Hello, await the agent's Hello reply,
// retrying like SetConfig does. Stream controllers use Handshake instead.
func (c *Controller) Probe(ctx context.Context) error {
	seq := c.seq.Add(1)
	trace := obs.NewTraceID()
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.conn.Send(seq, trace, &Hello{}); err != nil {
			return err
		}
		c.sc.Registry().Counter("controlplane_frames_sent_total").Inc()
		deadline := time.Now().Add(c.Timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		_ = c.conn.SetRecvDeadline(deadline)
		for {
			_, _, msg, err := c.conn.Recv()
			if err != nil {
				lastErr = err
				break
			}
			if h, ok := msg.(*Hello); ok && (h.AgentID != 0 || h.NumElements != 0) {
				c.agentID = h.AgentID
				c.numElements = int(h.NumElements)
				c.helloSeen = true
				c.traceSpan("controlplane/probe", trace, start, nil)
				return nil
			}
		}
	}
	return fmt.Errorf("controlplane: probe unanswered: %w", lastErr)
}

// AgentID returns the agent identity learned in the handshake.
func (c *Controller) AgentID() uint32 { return c.agentID }

// NumElements returns the remote array size learned in the handshake.
func (c *Controller) NumElements() int { return c.numElements }

// SetConfig actuates cfg on the agent, retrying on timeout, and returns
// once the matching Ack arrives. ErrRejected reports an agent-side
// validation failure (no retry: the config itself is bad).
func (c *Controller) SetConfig(ctx context.Context, cfg element.Config) error {
	_, err := c.SetConfigTraced(ctx, cfg)
	return err
}

// SetConfigTraced is SetConfig, additionally returning the request's
// trace ID (the one riding the frame header and naming the controller/
// agent span pair), so callers can stamp downstream artifacts — recorded
// measurements, CSV rows — with the actuation that produced them. The ID
// is returned even on failure, identifying the attempted request.
func (c *Controller) SetConfigTraced(ctx context.Context, cfg element.Config) (uint64, error) {
	if c.helloSeen && len(cfg) != c.numElements {
		return 0, fmt.Errorf("controlplane: config has %d states for %d elements", len(cfg), c.numElements)
	}
	states := make([]uint8, len(cfg))
	for i, s := range cfg {
		if s < 0 || s > 255 {
			return 0, fmt.Errorf("controlplane: state %d out of uint8 range", s)
		}
		states[i] = uint8(s)
	}
	msg := &SetConfig{States: states}
	seq := c.seq.Add(1)
	trace := obs.NewTraceID()
	reg, log := c.sc.Registry(), c.sc.Logger()
	if loop := c.sc.Tracer().Current(); loop != nil {
		// Ride the loop's trace ID so the controller/agent timeline spans
		// and the loop's span tree share one key.
		trace = loop.Trace()
	}
	reqStart := time.Now()
	sp := c.sc.Start(prof.PhaseActuate).Node("actuate")
	defer sp.End()

	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return trace, err
		}
		if attempt > 0 {
			c.Stats.Retries.Add(1)
			reg.Counter("controlplane_retries_total").Inc()
			if log.Enabled(obs.LevelDebug) {
				log.Debug("controlplane: retrying set-config",
					"seq", seq, "trace", trace, "attempt", attempt, "err", lastErr)
			}
		}
		var attemptStart time.Time
		if reg != nil {
			attemptStart = time.Now()
		}
		if err := c.conn.Send(seq, trace, msg); err != nil {
			return trace, err
		}
		c.Stats.Sent.Add(1)
		reg.Counter("controlplane_frames_sent_total").Inc()

		asp := sp.Child("ack")
		status, err := c.awaitAck(ctx, seq)
		asp.End()
		if err == nil {
			if reg != nil {
				reg.Histogram("controlplane_ack_latency_seconds", obs.LatencyBuckets).
					ObserveDuration(time.Since(attemptStart))
			}
			c.traceSpan("controlplane/set-config", trace, reqStart,
				map[string]any{"seq": seq, "attempts": attempt + 1, "status": status})
			if status != StatusOK {
				c.Stats.Rejected.Add(1)
				reg.Counter("controlplane_rejected_total").Inc()
				return trace, fmt.Errorf("%w (status %d)", ErrRejected, status)
			}
			c.Stats.Acked.Add(1)
			reg.Counter("controlplane_acks_total").Inc()
			sp.Add(prof.AuxActuations, 1)
			return trace, nil
		}
		lastErr = err
	}
	if log.Enabled(obs.LevelWarn) {
		log.Warn("controlplane: set-config unacknowledged",
			"seq", seq, "trace", trace, "attempts", c.Retries+1, "err", lastErr)
	}
	return trace, fmt.Errorf("controlplane: set-config seq %d unacknowledged after %d attempts: %w",
		seq, c.Retries+1, lastErr)
}

// skipCorrupt reports whether err is a corrupted frame, counting it in
// Stats.CRCErrors and controlplane_crc_errors_total: the caller drops
// the frame and keeps draining, since the reply it awaits may still be
// on its way.
func (c *Controller) skipCorrupt(reg *obs.Registry, err error) bool {
	if !errors.Is(err, ErrBadCRC) {
		return false
	}
	c.Stats.CRCErrors.Add(1)
	reg.Counter("controlplane_crc_errors_total").Inc()
	return true
}

// awaitAck consumes messages until the matching ack or the attempt
// deadline.
func (c *Controller) awaitAck(ctx context.Context, seq uint32) (uint8, error) {
	deadline := time.Now().Add(c.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = c.conn.SetRecvDeadline(deadline)
	reg := c.sc.Registry()
	for {
		_, _, msg, err := c.conn.Recv()
		if err != nil {
			if c.skipCorrupt(reg, err) {
				continue
			}
			var to interface{ Timeout() bool }
			if errors.As(err, &to) && to.Timeout() {
				c.Stats.Timeouts.Add(1)
				reg.Counter("controlplane_timeouts_total").Inc()
			}
			return 0, err
		}
		reg.Counter("controlplane_frames_received_total").Inc()
		if ack, ok := msg.(*Ack); ok && ack.AckSeq == seq {
			return ack.Status, nil
		}
		// Stale ack or unsolicited message: keep draining.
	}
}

// QueryConfig fetches the agent's applied configuration.
func (c *Controller) QueryConfig(ctx context.Context) (element.Config, error) {
	seq := c.seq.Add(1)
	trace := obs.NewTraceID()
	start := time.Now()
	reg := c.sc.Registry()
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := c.conn.Send(seq, trace, &Query{}); err != nil {
			return nil, err
		}
		reg.Counter("controlplane_frames_sent_total").Inc()
		deadline := time.Now().Add(c.Timeout)
		_ = c.conn.SetRecvDeadline(deadline)
		for {
			_, _, msg, err := c.conn.Recv()
			if err != nil {
				if c.skipCorrupt(reg, err) {
					continue
				}
				lastErr = err
				break
			}
			if rep, ok := msg.(*Report); ok {
				cfg := make(element.Config, len(rep.States))
				for i, s := range rep.States {
					cfg[i] = int(s)
				}
				c.traceSpan("controlplane/query", trace, start,
					map[string]any{"seq": seq, "attempts": attempt + 1})
				return cfg, nil
			}
		}
	}
	return nil, fmt.Errorf("controlplane: query unanswered: %w", lastErr)
}

// Ping measures the control-plane round-trip time — the number §2's
// coherence-time budget divides by.
func (c *Controller) Ping(ctx context.Context) (time.Duration, error) {
	seq := c.seq.Add(1)
	trace := obs.NewTraceID()
	start := time.Now()
	reg := c.sc.Registry()
	if err := c.conn.Send(seq, trace, &Ping{T: start.UnixNano()}); err != nil {
		return 0, err
	}
	reg.Counter("controlplane_frames_sent_total").Inc()
	deadline := start.Add(c.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = c.conn.SetRecvDeadline(deadline)
	for {
		_, _, msg, err := c.conn.Recv()
		if err != nil {
			if c.skipCorrupt(reg, err) {
				continue
			}
			return 0, err
		}
		if pong, ok := msg.(*Pong); ok && pong.T == start.UnixNano() {
			rtt := time.Since(start)
			if reg != nil {
				reg.Histogram("controlplane_ping_rtt_seconds", obs.LatencyBuckets).
					ObserveDuration(rtt)
			}
			c.traceSpan("controlplane/ping", trace, start, map[string]any{"seq": seq})
			return rtt, nil
		}
	}
}
