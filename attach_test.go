package press_test

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"press/internal/control"
	"press/internal/controlplane"
	"press/internal/element"
	"press/internal/experiments"
	"press/internal/geom"
	"press/internal/obs/scope"
	"press/internal/propagation"
)

// loopConn is a synchronous in-memory control-plane Conn: Recv pops
// queued messages (io.EOF once none is left) and a Ping sent on it
// queues its Pong, so a Controller or an Agent runs on one goroutine.
type loopConn struct{ queue []controlplane.Message }

func (c *loopConn) Send(_ uint32, _ uint64, msg controlplane.Message) error {
	if p, ok := msg.(*controlplane.Ping); ok {
		c.queue = append(c.queue, &controlplane.Pong{T: p.T})
	}
	return nil
}

func (c *loopConn) Recv() (uint32, uint64, controlplane.Message, error) {
	if len(c.queue) == 0 {
		return 0, 0, nil, io.EOF
	}
	msg := c.queue[0]
	c.queue = c.queue[1:]
	return 1, 0, msg, nil
}

func (c *loopConn) SetRecvDeadline(time.Time) error { return nil }
func (c *loopConn) Close() error                    { return nil }

// producer is one telemetry producer under test: attach points it at a
// scope (nil detaches) and op runs one operation that feeds the scope.
type producer struct {
	attach func(*scope.Scope)
	op     func() error
}

// scopeActivity sums every counter and phase-call count a scope holds,
// so any write through it changes the total.
func scopeActivity(sc *scope.Scope) int64 {
	var n int64
	for _, v := range sc.Registry().Snapshot().Counters {
		n += v
	}
	for _, pc := range sc.Prof().Snapshot() {
		n += pc.Calls
	}
	return n
}

// TestAttachScopeDetach: every producer feeds an attached scope, and
// after detaching feeds nothing and allocates exactly what a producer
// that was never attached allocates.
func TestAttachScopeDetach(t *testing.T) {
	ctx := context.Background()
	cases := map[string]func(t *testing.T) producer{
		"Environment": func(t *testing.T) producer {
			env := propagation.NewEnvironment(5, 4, 3)
			tx := propagation.Node{Pos: geom.V(1, 1, 1.5)}
			rx := propagation.Node{Pos: geom.V(4, 3, 1.5)}
			return producer{env.AttachScope, func() error {
				propagation.TracePaths(env, tx, rx, 0.125)
				return nil
			}}
		},
		"Link": func(t *testing.T) producer {
			link, err := experiments.DefaultSISO(3).Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := make(element.Config, link.Array.N())
			return producer{link.AttachScope, func() error {
				_, err := link.MeasureCSI(cfg, 0)
				return err
			}}
		},
		"MIMOLink": func(t *testing.T) producer {
			ml, err := experiments.DefaultMIMO(3).Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := make(element.Config, ml.Array.N())
			return producer{ml.AttachScope, func() error {
				_, err := ml.TrueChannel(cfg, 0)
				return err
			}}
		},
		"Controller": func(t *testing.T) producer {
			ctrl := controlplane.NewController(&loopConn{})
			return producer{ctrl.AttachScope, func() error {
				_, err := ctrl.Ping(ctx)
				return err
			}}
		},
		"Agent": func(t *testing.T) producer {
			agent := controlplane.NewAgent(1, element.NewArray(&element.Element{States: element.SP4TStates()}))
			conn := &loopConn{}
			return producer{agent.AttachScope, func() error {
				conn.queue = append(conn.queue[:0], &controlplane.Ping{T: 1})
				if err := agent.Serve(ctx, conn); !errors.Is(err, io.EOF) {
					return err
				}
				return nil
			}}
		},
		"Instrumented": func(t *testing.T) producer {
			arr := element.NewArray(&element.Element{States: element.SP4TStates()})
			eval := func(cfg element.Config) (float64, error) { return float64(cfg[0]), nil }
			var s control.Searcher = control.Exhaustive{}
			return producer{
				func(sc *scope.Scope) { s = control.InstrumentScope(control.Exhaustive{}, sc) },
				func() error {
					_, err := s.Search(arr, eval, 0)
					return err
				}}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			sc, err := scope.New(name, nil, scope.Config{PhaseAccounting: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			p := build(t)
			p.attach(sc)
			if err := p.op(); err != nil {
				t.Fatal(err)
			}
			attached := scopeActivity(sc)
			if attached == 0 {
				t.Fatal("attached producer fed no counter or phase")
			}

			p.attach(nil)
			if err := p.op(); err != nil {
				t.Fatal(err)
			}
			if got := scopeActivity(sc); got != attached {
				t.Errorf("detached producer still fed the scope: activity %d → %d", attached, got)
			}

			never := build(t)
			detachedAllocs := testing.AllocsPerRun(20, func() { _ = p.op() })
			neverAllocs := testing.AllocsPerRun(20, func() { _ = never.op() })
			if detachedAllocs != neverAllocs {
				t.Errorf("detached op allocates %.0f, never-attached %.0f", detachedAllocs, neverAllocs)
			}
		})
	}
}
