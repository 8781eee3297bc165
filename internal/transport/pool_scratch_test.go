package transport

import (
	"context"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// bulkServer answers every request on every connection with a Pong frame
// carrying a payload of n bytes — enough to force the client's decode
// scratch well past any small-buffer floor — as a mux or a pre-mux peer.
func bulkServer(t *testing.T, n int, mux bool) string {
	t.Helper()
	ln := testutil.Loopback(t)
	reply := make([]byte, n)
	scriptedServer(t, ln, mux, func(int, int, wire.MsgType, []byte) (wire.MsgType, []byte, bool) {
		return wire.TypePong, reply, true
	})
	return ln.Addr().String()
}

// TestPoolIdleConnsRetainNoScratch is the buffer-retention regression
// test: a pooled call that transfers a large reply must not leave
// payload-sized memory behind in the pool. Once the decode scratch rode
// on the lockstep connection, and MaxIdlePerHost connections after a
// model-sized burst pinned MaxIdlePerHost × payload bytes for as long as
// they sat in the idle list. Now the buffer is the call's on both
// connection kinds — a pooledConn has nowhere to keep one — and what is
// left to check is that Call's buffers do cycle through the arena.
func TestPoolIdleConnsRetainNoScratch(t *testing.T) {
	const replySize = 512 << 10
	for _, peer := range poolPeers {
		t.Run(peer.name, func(t *testing.T) {
			addr := bulkServer(t, replySize, peer.mux)
			p := newTestPool(t, PoolConfig{})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			// Three calls suffice for the Puts check below. The reuse
			// check needs slack: under the race detector sync.Pool
			// deliberately drops a fraction of Puts at random, so a fixed
			// small call count can legitimately observe zero hits — keep
			// exchanging until a recycled buffer shows up, bounded so a
			// real reuse bug still fails fast.
			for i := 0; i < 3 || (i < 64 && p.ArenaStats().Hits == 0); i++ {
				typ, payload, err := p.Call(ctx, addr, wire.TypePing, (&wire.Ping{Token: uint64(i)}).Encode(nil))
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if typ != wire.TypePong || len(payload) != replySize {
					t.Fatalf("call %d: type %v payload %d bytes, want Pong with %d", i, typ, len(payload), replySize)
				}
			}

			st := p.ArenaStats()
			if st.Puts == 0 {
				t.Fatalf("finished calls returned nothing to the arena: %+v", st)
			}
			if st.Hits == 0 {
				t.Fatalf("repeat calls never reused an arena buffer: %+v", st)
			}
		})
	}
}
