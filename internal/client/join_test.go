// Tests for the retry policy of join and the single flight of restore,
// against a scripted server whose epoch each test moves by hand.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// scriptedServer answers GetModel with a two-dimensional model over its
// current landmarks, RegisterHost with Ack (or CodeStaleEpoch when the
// registration's epoch is not its own), and GetVectors and QueryBatch
// stamped with its epoch. It counts the GetModel and RegisterHost
// requests it answers.
type scriptedServer struct {
	mu        sync.Mutex
	epoch     uint64
	landmarks []string
	// registered is the epoch of this host's live directory entry; 0
	// when it has none (never registered, or expired).
	registered uint64
	// refitsOnRegister moves the epoch before answering that many
	// RegisterHost requests, so each comes back stale; negative means
	// every one.
	refitsOnRegister int

	getModel, registerHost int
}

// start serves s until the test ends and returns a client of it.
func (s *scriptedServer) start(t *testing.T, p *countingPinger) *Client {
	t.Helper()
	c, err := New(Config{
		Self:   "self",
		Server: serve(t, s.handle),
		Dialer: &net.Dialer{Timeout: 5 * time.Second},
		Pinger: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func (s *scriptedServer) handle(typ wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch typ {
	case wire.TypeGetModel:
		s.getModel++
		m := &wire.Model{Dim: 2, Algorithm: "SVD", Epoch: s.epoch}
		for i, addr := range s.landmarks {
			v := []float64{0, 0}
			v[i%2] = 1
			m.Landmarks = append(m.Landmarks, wire.LandmarkVec{Addr: addr, Out: v, In: v})
		}
		return wire.TypeModel, m.Encode(dst)
	case wire.TypeRegisterHost:
		s.registerHost++
		reg, err := wire.DecodeRegisterHost(payload)
		if err != nil {
			break
		}
		if s.refitsOnRegister != 0 {
			s.refitsOnRegister--
			s.epoch++
		}
		if reg.Epoch != s.epoch {
			return wire.TypeError, (&wire.Error{Code: wire.CodeStaleEpoch}).Encode(dst)
		}
		s.registered = s.epoch
		return wire.TypeAck, dst
	case wire.TypeGetVectors:
		v := &wire.Vectors{Found: true, Out: []float64{1, 1}, In: []float64{1, 1}, Epoch: s.epoch}
		return wire.TypeVectors, v.Encode(dst)
	case wire.TypeQueryBatch:
		q, err := wire.DecodeQueryBatch(payload)
		if err != nil {
			break
		}
		d := &wire.Distances{SrcFound: s.registered == s.epoch, Results: make([]wire.DistResult, len(q.Targets)), Epoch: s.epoch}
		return wire.TypeDistances, d.Encode(dst)
	}
	return wire.TypeError, (&wire.Error{Code: wire.CodeBadRequest}).Encode(dst)
}

// counts returns the GetModel and RegisterHost requests answered so far.
func (s *scriptedServer) counts() (getModel, registerHost int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getModel, s.registerHost
}

// set runs f on the server's state under its lock.
func (s *scriptedServer) set(f func(s *scriptedServer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s)
}

// countingPinger answers like testutil.StubPinger and counts the pings
// each address received.
type countingPinger struct {
	testutil.StubPinger
	mu    sync.Mutex
	pings map[string]int
}

func newCountingPinger() *countingPinger {
	return &countingPinger{StubPinger: testutil.StubPinger{RTT: 5 * time.Millisecond}, pings: map[string]int{}}
}

// Ping implements transport.Pinger.
func (p *countingPinger) Ping(ctx context.Context, addr string, samples int) (time.Duration, error) {
	p.mu.Lock()
	p.pings[addr]++
	p.mu.Unlock()
	return p.StubPinger.Ping(ctx, addr, samples)
}

func (p *countingPinger) count(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pings[addr]
}

// TestConcurrentReadersRecoverOnce: eight EstimateTo calls that all see
// the same epoch bump share one recovery, one GetModel and one
// RegisterHost, even when a stale reply arrives after another reader
// has already recovered; eight EstimateBatch calls that all find this
// host expired share one RegisterHost.
func TestConcurrentReadersRecoverOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := &scriptedServer{epoch: 1, landmarks: []string{"a", "b"}}
	c := s.start(t, newCountingPinger())
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []struct {
		name      string
		happen    func(s *scriptedServer)
		read      func(round int) error
		wantModel int
	}{
		{
			name:   "epoch bump",
			happen: func(s *scriptedServer) { s.epoch++ },
			read: func(round int) error {
				_, err := c.EstimateTo(ctx, fmt.Sprintf("peer-%d", round))
				return err
			},
			wantModel: 1,
		},
		{
			name:   "HostTTL expiry",
			happen: func(s *scriptedServer) { s.registered = 0 },
			read: func(int) error {
				_, err := c.EstimateBatch(ctx, []string{"x"})
				return err
			},
		},
	} {
		for round := 0; round < 20; round++ {
			models, regs := s.counts()
			s.set(ev.happen)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ev.read(round); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s %d: %v", ev.name, round, err)
			}
			gotModels, gotRegs := s.counts()
			if gotModels-models != ev.wantModel || gotRegs-regs != 1 {
				t.Fatalf("%s %d cost %d GetModel and %d RegisterHost, want %d and 1",
					ev.name, round, gotModels-models, gotRegs-regs, ev.wantModel)
			}
			s.mu.Lock()
			epoch := s.epoch
			s.mu.Unlock()
			if c.Epoch() != epoch {
				t.Fatalf("%s %d: Epoch() = %d, server at %d", ev.name, round, c.Epoch(), epoch)
			}
		}
	}
}

// TestClientJoin covers the retry policy join owns: a refit between the
// fetch and the registration, cached RTTs that no longer cover the
// model, a model that never stops moving, and a HostTTL expiry.
func TestClientJoin(t *testing.T) {
	for _, tc := range []struct {
		name string
		// before configures the server ahead of Bootstrap; after, when
		// set, changes it once Bootstrap succeeded, and an EstimateBatch
		// follows.
		before, after func(s *scriptedServer)
		check         func(t *testing.T, s *scriptedServer, p *countingPinger, c *Client, err error)
	}{
		{
			name:   "refit between fetch and register",
			before: func(s *scriptedServer) { s.refitsOnRegister = 1 },
			check: func(t *testing.T, s *scriptedServer, p *countingPinger, c *Client, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if models, regs := s.counts(); models != 2 || regs != 2 {
					t.Fatalf("%d GetModel and %d RegisterHost, want 2 and 2", models, regs)
				}
				if p.count("a") != 1 || p.count("b") != 1 {
					t.Fatalf("pings a=%d b=%d, want one each", p.count("a"), p.count("b"))
				}
				if c.Epoch() != 2 {
					t.Fatalf("Epoch() = %d, want 2", c.Epoch())
				}
			},
		},
		{
			name: "cached RTTs no longer cover the model",
			after: func(s *scriptedServer) {
				s.epoch, s.landmarks = 2, []string{"c", "d"}
			},
			check: func(t *testing.T, s *scriptedServer, p *countingPinger, c *Client, err error) {
				if err != nil {
					t.Fatal(err)
				}
				for addr, want := range map[string]int{"a": 1, "b": 1, "c": 1, "d": 1} {
					if got := p.count(addr); got != want {
						t.Fatalf("%s pinged %d times, want %d", addr, got, want)
					}
				}
				if _, regs := s.counts(); regs != 2 {
					t.Fatalf("%d RegisterHost, want 2", regs)
				}
				if c.Epoch() != 2 {
					t.Fatalf("Epoch() = %d, want 2", c.Epoch())
				}
			},
		},
		{
			name:   "always stale",
			before: func(s *scriptedServer) { s.refitsOnRegister = -1 },
			check: func(t *testing.T, s *scriptedServer, _ *countingPinger, _ *Client, err error) {
				var werr *wire.Error
				if !errors.As(err, &werr) || werr.Code != wire.CodeStaleEpoch {
					t.Fatalf("Bootstrap returned %v, want CodeStaleEpoch", err)
				}
				if models, _ := s.counts(); models != 3 {
					t.Fatalf("%d GetModel, want 3", models)
				}
			},
		},
		{
			name:  "HostTTL expiry",
			after: func(s *scriptedServer) { s.registered = 0 },
			check: func(t *testing.T, s *scriptedServer, _ *countingPinger, c *Client, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if models, regs := s.counts(); models != 1 || regs != 2 {
					t.Fatalf("%d GetModel and %d RegisterHost, want 1 and 2", models, regs)
				}
				if c.Epoch() != 1 {
					t.Fatalf("Epoch() = %d, want 1", c.Epoch())
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s := &scriptedServer{epoch: 1, landmarks: []string{"a", "b"}}
			if tc.before != nil {
				s.set(tc.before)
			}
			p := newCountingPinger()
			c := s.start(t, p)
			err := c.Bootstrap(ctx)
			if err == nil && tc.after != nil {
				s.set(tc.after)
				var ests []BatchEstimate
				if ests, err = c.EstimateBatch(ctx, []string{"x"}); err == nil && len(ests) != 1 {
					t.Fatalf("EstimateBatch answered %d of 1 targets", len(ests))
				}
			}
			tc.check(t, s, p, c, err)
		})
	}
}
