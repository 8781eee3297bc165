package client

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// serve runs h over loopback TCP until the test ends and returns its
// address.
func serve(t *testing.T, h transport.Handler) string {
	t.Helper()
	ln := testutil.Loopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.Serve(ctx, ln, transport.ServeConfig{Handler: h, Logf: t.Logf}) //nolint:errcheck
	}()
	t.Cleanup(func() { cancel(); <-done })
	return ln.Addr().String()
}

// serveStub answers GetModel with model, RegisterHost with an Ack and
// GetVectors with vectors, until the test ends.
func serveStub(t *testing.T, model *wire.Model, vectors *wire.Vectors) string {
	return serve(t, func(typ wire.MsgType, _, dst []byte) (wire.MsgType, []byte) {
		switch typ {
		case wire.TypeGetModel:
			return wire.TypeModel, model.Encode(dst)
		case wire.TypeRegisterHost:
			return wire.TypeAck, dst
		case wire.TypeGetVectors:
			return wire.TypeVectors, vectors.Encode(dst)
		}
		return wire.TypeError, (&wire.Error{Code: wire.CodeUnknownType}).Encode(dst)
	})
}

// TestClientRefusesMalformedReplies: a server reply whose vectors do not
// match the dimension the client works in is an error from the call
// that received it, not a panic in the matrix code behind it.
func TestClientRefusesMalformedReplies(t *testing.T) {
	good := &wire.Model{Dim: 2, Algorithm: "SVD", Epoch: 1, Landmarks: []wire.LandmarkVec{
		{Addr: "a", Out: []float64{1, 0}, In: []float64{1, 0}},
		{Addr: "b", Out: []float64{0, 1}, In: []float64{0, 1}},
	}}
	for _, tc := range []struct {
		name    string
		model   *wire.Model
		vectors *wire.Vectors
		// joins reports whether Bootstrap should succeed; the malformed
		// reply then comes from the directory.
		joins bool
	}{
		{
			name: "short landmark vector",
			model: &wire.Model{Dim: 2, Algorithm: "SVD", Epoch: 1, Landmarks: []wire.LandmarkVec{
				{Addr: "a", Out: []float64{1}, In: []float64{1, 0}},
				{Addr: "b", Out: []float64{0, 1}, In: []float64{0, 1}},
			}},
		},
		{
			name:    "peer vectors of another dimension",
			model:   good,
			vectors: &wire.Vectors{Found: true, Out: []float64{1}, In: []float64{1}, Epoch: 1},
			joins:   true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c, err := New(Config{
				Self:   "self",
				Server: serveStub(t, tc.model, tc.vectors),
				Dialer: &net.Dialer{Timeout: 5 * time.Second},
				Pinger: testutil.StubPinger{RTT: 5 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Bootstrap(ctx)
			if !tc.joins {
				if err == nil {
					t.Fatal("Bootstrap accepted the malformed model")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.EstimateTo(ctx, "peer"); err == nil {
				t.Fatal("EstimateTo accepted the malformed vectors")
			}
			if _, err := c.EstimateFrom(ctx, "peer"); err == nil {
				t.Fatal("EstimateFrom accepted the malformed vectors")
			}
		})
	}
}
