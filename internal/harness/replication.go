package harness

import (
	"context"
	"fmt"
	"time"

	"github.com/ides-go/ides/internal/server"
)

// Replication-tier scenario steps: follower access, replica
// synchronization barriers, and the leader kill/revive fault pair. All
// of them operate on the real server code over the simnet fabric —
// KillLeader crashes the leader's machine (connections reset, dials
// refused) and ReviveLeader boots a fresh server process on it, the
// same shape as a production failover.

// Follower returns follower i's server.
func (c *Cluster) Follower(i int) *server.Server { return c.followers[i] }

// WaitReplicaSync blocks until every follower has applied the leader's
// current model position (epoch and revision) and mirrors at least the
// leader's directory size — the barrier scenario steps use instead of
// sleeping. The leader position is captured once at entry, so a
// concurrent fit moves the goalpost only for the next call.
func (c *Cluster) WaitReplicaSync(ctx context.Context) error {
	ls := c.Srv.LifecycleStats()
	wantHosts := c.Srv.NumHosts()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for i, f := range c.followers {
		for {
			fs := f.LifecycleStats()
			caughtUp := fs.Epoch > ls.Epoch ||
				(fs.Epoch == ls.Epoch && fs.Rev >= ls.Rev)
			if caughtUp && f.NumHosts() >= wantHosts {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("harness: follower %s stuck at epoch %d rev %d (%d hosts), leader at %d/%d (%d hosts): %w",
					c.followerNames[i], fs.Epoch, fs.Rev, f.NumHosts(),
					ls.Epoch, ls.Rev, wantHosts, ctx.Err())
			case <-tick.C:
			}
		}
	}
	return nil
}

// KillLeader crashes the leader: its machine drops off the fabric
// (listener gone, live connections reset, dials refused) and the server
// process stops. Followers keep serving their last applied model and
// clients fail reads over to them; writes bounce until ReviveLeader.
// Returns the epoch the tier was serving at the kill.
func (c *Cluster) KillLeader() (uint64, error) {
	if len(c.followers) == 0 {
		return 0, fmt.Errorf("harness: KillLeader without followers would stop the whole tier")
	}
	epoch := c.Srv.Epoch()
	c.leaderEpoch = epoch
	if err := c.Net.Kill(ServerName); err != nil {
		return 0, err
	}
	c.Srv.Close()
	return epoch, nil
}

// ReviveLeader boots a fresh leader process on the revived machine, as
// a restart-from-empty: no model, no directory, but an epoch base above
// everything the dead incarnation published, so its first fit is
// recognizably newer than what followers are still serving. Followers
// resubscribe on their own; drive a ReportRound/Refresh and
// WaitReplicaSync to converge the tier, then let clients re-register
// through their stale-epoch recovery.
func (c *Cluster) ReviveLeader(ctx context.Context) error {
	if err := c.Net.Revive(ServerName); err != nil {
		return err
	}
	cfg := c.leaderCfg
	cfg.BaseEpoch = c.leaderEpoch
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("harness: reviving leader: %w", err)
	}
	h, err := c.Net.Host(ServerName)
	if err != nil {
		srv.Close()
		return fmt.Errorf("harness: %w", err)
	}
	ln, err := h.Listen()
	if err != nil {
		srv.Close()
		return fmt.Errorf("harness: %w", err)
	}
	c.Srv = srv
	c.lns = append(c.lns, ln)
	go srv.Serve(c.ctx, ln) //nolint:errcheck
	return nil
}
