package ides_test

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// binaryCmd is one command line of the end-to-end test: a shipped binary
// and what it is passed.
type binaryCmd struct {
	bin  string
	args []string
}

// binaryCommands is every command line TestBinaries runs, by row name.
// addr turns a name into a loopback address and dir is a scratch
// directory. TestEveryFlagIsPassed (reach_test.go) reads the same table
// with placeholders for both: a flag a binary defines stays only while a
// row here passes it, and TestBinaries fails on a row it did not run.
func binaryCommands(addr func(string) string, dir string) map[string]binaryCmd {
	data, history := filepath.Join(dir, "data"), filepath.Join(dir, "history")
	lms := []string{addr("lm0"), addr("lm1"), addr("lm2")}
	peers := []string{addr("peer0"), addr("peer1"), addr("peer2"), addr("peer3")}
	rows := map[string]binaryCmd{
		// The landmark deployment: leader, follower, three landmarks, two
		// hosts. The sgd solver with drift refits off publishes revisions
		// under one epoch, so hostA is still registered when hostB asks
		// about it; under the batch solver every report round — 300 ms
		// apart here — bumps the epoch and evicts the directory.
		"leader": {"ides-server", []string{
			"-listen", addr("leader"), "-role", "leader", "-landmarks", strings.Join(lms, ","),
			"-dim", "2", "-alg", "nmf", "-seed", "7", "-epoch-base", "1000",
			"-solver", "sgd", "-drift-epoch-threshold=-1", "-refit-interval", "200ms", "-refit-threshold", "1",
			"-host-ttl", "1m", "-request-timeout", "5s", "-idle-timeout", "1m",
			"-metrics-addr", addr("leader-metrics"), "-history-dir", history}},
		"follower": {"ides-server", []string{
			"-listen", addr("follower"), "-role", "follower", "-leader", addr("leader"),
			"-follower-id", "replica-1", "-metrics-addr", addr("follower-metrics")}},
		// One more report round on top of the persistent fleet, sent
		// through the follower, which forwards writes to the leader.
		"lm-once": {"ides-landmark", []string{
			"-once", "-self", lms[0], "-peers", lms[1] + "," + lms[2], "-server", addr("follower")}},
		// hostA stays up as an echo reference point; hostB queries the
		// whole tier about it.
		"host-a": {"ides-client", []string{
			"-self", "hostA", "-server", addr("leader"), "-listen", addr("host-a"),
			"-timeout", "10s", "-metrics-addr", addr("host-a-metrics")}},
		"host-b": {"ides-client", []string{
			"-self", "hostB", "-servers", addr("leader") + "," + addr("follower"),
			"-k", "2", "-samples", "2", "-seed", "3", "-timeout", "10s",
			"-to", "hostA", "-from", "hostA", "-nearest", "hostA,ghost", "-knn", "2",
			"-pool-max-idle", "2", "-pool-max-per-host", "4", "-pool-idle-timeout", "20s", "-mux-conns", "1"}},
		"replay": {"ides-inspect", []string{
			"-replay", history, "-replay-from", "1", "-replay-to", "4000000000000000000",
			"-what-if-solver", "batch", "-what-if-alg", "svd", "-what-if-dim", "2",
			"-what-if-drift", "0.2", "-what-if-seed", "9"}},

		// The landmark-free deployment: a rendezvous directory and four
		// gossiping peers, the last of them bootstrapped from a static
		// neighbor instead.
		"rendezvous": {"ides-server", []string{
			"-listen", addr("rendezvous"), "-role", "rendezvous", "-metrics-addr", addr("rendezvous-metrics")}},

		"datagen":      {"datagen", []string{"-out", data, "-only", "GNP", "-seed", "3", "-missing", "0.1"}},
		"datagen-full": {"datagen", []string{"-out", data, "-only", "P2PSim", "-full"}},
		"inspect":      {"ides-inspect", []string{"-seed", "2", filepath.Join(data, "gnp.ids")}},
		// Fig 7(a) is the one experiment that is quick at the paper's scale.
		"idesbench": {"idesbench", []string{"-exp", "fig7a", "-full", "-seed", "7"}},
	}
	for i, lm := range lms {
		n := strconv.Itoa(i)
		rows["lm"+n] = binaryCmd{"ides-landmark", []string{
			"-self", lm, "-listen", lm, "-peers", strings.Join(lms, ","), "-server", addr("leader"),
			"-interval", "300ms", "-samples", "2", "-metrics-addr", addr("lm" + n + "-metrics"),
			"-pool-max-idle", "1", "-pool-max-per-host", "2", "-pool-idle-timeout", "30s", "-mux-conns", "1"}}
	}
	for i, p := range peers {
		n := strconv.Itoa(i)
		bootstrap := []string{"-rendezvous", addr("rendezvous")}
		if i == len(peers)-1 {
			bootstrap = []string{"-neighbors", peers[0]}
		}
		rows["peer"+n] = binaryCmd{"ides-peer", append(bootstrap,
			"-self", p, "-listen", p, "-interval", "100ms", "-dim", "4", "-alg", "nmf", "-seed", strconv.Itoa(i+1),
			"-max-neighbors", "8", "-sample-size", "2", "-metrics-addr", addr("peer"+n+"-metrics"),
			"-pool-max-idle", "1", "-pool-max-per-host", "2", "-pool-idle-timeout", "30s", "-mux-conns=-1")}
	}
	return rows
}

// binaries is the fixture of TestBinaries: the built programs, the table
// with real addresses, and which rows have been started.
type binaries struct {
	bin, work string
	rows      map[string]binaryCmd

	// addrs are the loopback addresses the rows were given, by name.
	addrs map[string]string

	mu  sync.Mutex
	ran map[string]bool
}

// reserve picks a free loopback port for name, once. The listener is
// held until every name has one, so that no two get the same port.
func (b *binaries) reserve(t *testing.T, name string, held *[]net.Listener) string {
	if b.addrs[name] == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		*held = append(*held, ln)
		b.addrs[name] = ln.Addr().String()
	}
	return b.addrs[name]
}

// process is one started row and everything it has printed.
type process struct {
	row  string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has exited
	err  error         // its exit status, valid after done

	mu  sync.Mutex
	buf bytes.Buffer
}

func (p *process) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.Write(b)
}

func (p *process) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

// start launches a row. The process is killed when the test ends,
// however it ends.
func (b *binaries) start(t *testing.T, row string) *process {
	t.Helper()
	c, ok := b.rows[row]
	if !ok {
		t.Fatalf("no row %q in binaryCommands", row)
	}
	b.mu.Lock()
	b.ran[row] = true
	b.mu.Unlock()
	p := &process{row: row, cmd: exec.Command(filepath.Join(b.bin, c.bin), c.args...), done: make(chan struct{})}
	p.cmd.Dir = b.work
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("%s: %v", row, err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() { p.cmd.Process.Kill(); <-p.done }) //nolint:errcheck
	return p
}

// exited waits for the process to exit by itself with status 0.
func (p *process) exited(t *testing.T) string {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: still running after 20s\n%s", p.row, p.output())
	}
	if p.err != nil {
		t.Fatalf("%s: %v\n%s", p.row, p.err, p.output())
	}
	return p.output()
}

// run starts a row, waits for it to exit with status 0 and checks that it
// printed every one of want.
func (b *binaries) run(t *testing.T, row string, want ...string) {
	t.Helper()
	p := b.start(t, row)
	p.contains(t, p.exited(t), want...)
}

func (p *process) contains(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("%s: output lacks %q\n%s", p.row, w, out)
		}
	}
}

// eventually polls cond until it holds; on timeout the failure carries
// what the named processes printed.
func eventually(t *testing.T, what string, cond func() bool, procs ...*process) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			var logs strings.Builder
			for _, p := range procs {
				logs.WriteString("--- " + p.row + "\n" + p.output())
			}
			t.Fatalf("timed out waiting for %s\n%s", what, logs.String())
		}
	}
}

// logged waits until the process has printed s.
func (p *process) logged(t *testing.T, s string) {
	t.Helper()
	eventually(t, p.row+" to print "+strconv.Quote(s), func() bool { return strings.Contains(p.output(), s) }, p)
}

// shutDown sends SIGTERM and expects the clean exit every long-running
// binary promises: its "shut down" line and status 0.
func (p *process) shutDown(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: %v", p.row, err)
	}
	p.contains(t, p.exited(t), "shut down")
}

// metric scrapes addr and sums the samples of one family; -1 while the
// endpoint or the family is not there yet.
func metric(addr, family string) float64 {
	resp, err := (&http.Client{Timeout: 2 * time.Second}).Get("http://" + addr + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	sum, found := 0.0, false
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && name == family {
			sum, found = sum+v, true
		}
	}
	if !found {
		return -1
	}
	return sum
}

// TestBinaries builds the seven programs under cmd/ and runs them as
// deployments on loopback: the landmark recipe (leader, follower, three
// landmarks, two hosts, then a replay of the recorded history), the
// landmark-free recipe (rendezvous, four gossiping peers) and the
// offline tools. It is the one place the flag parsing, the process
// wiring and the signal handling of the mains run at all.
func TestBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	b := &binaries{bin: t.TempDir(), work: t.TempDir(), addrs: map[string]string{}, ran: map[string]bool{}}
	if out, err := exec.Command("go", "build", "-o", b.bin+string(os.PathSeparator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	var held []net.Listener
	b.rows = binaryCommands(func(name string) string { return b.reserve(t, name, &held) }, b.work)
	for _, ln := range held {
		ln.Close()
	}
	addr := func(name string) string { return b.addrs[name] }

	t.Run("deployments", func(t *testing.T) {
		t.Run("landmarks", func(t *testing.T) {
			t.Parallel()
			leader := b.start(t, "leader")
			leader.logged(t, "leader listening on")
			follower := b.start(t, "follower")
			fleet := []*process{b.start(t, "lm0"), b.start(t, "lm1"), b.start(t, "lm2"), follower, leader}
			// -epoch-base 1000: the first fit is epoch 1001, and with
			// drift refits off it is the only one.
			eventually(t, "the first fit to reach the follower", func() bool {
				return metric(addr("follower-metrics"), "ides_model_epoch") == 1001
			}, fleet...)

			hostA := b.start(t, "host-a")
			hostA.logged(t, "registered hostA (d=2, model epoch 1001)")
			hostA.logged(t, "echoing on")
			b.run(t, "lm-once", "reported one round to "+addr("follower"))
			eventually(t, "hostA to reach the follower", func() bool {
				return metric(addr("follower-metrics"), "ides_server_hosts") >= 1
			}, fleet...)
			b.run(t, "host-b", "registered hostB (d=2, model epoch 1001)",
				"hostB -> hostA: ", "hostA -> hostB: ", "nearest: hostA (", "neighbor 1: hostA (")

			if metric(addr("leader-metrics"), "ides_model_fits_total") != 1 ||
				metric(addr("leader-metrics"), "ides_model_revisions_total") < 1 {
				t.Errorf("leader: want one fit and revisions after it\n%s", leader.output())
			}
			// A landmark whose first round found no peer up yet reports,
			// and so dials, one -interval later.
			for _, name := range []string{"host-a-metrics", "lm0-metrics", "lm1-metrics", "lm2-metrics"} {
				eventually(t, name+" to count a pool dial", func() bool {
					return metric(addr(name), "ides_pool_dials_total") >= 1
				}, fleet...)
			}
			for _, p := range fleet {
				p.shutDown(t)
			}
			// The history the leader has just closed, replayed as recorded
			// and under the other solver.
			b.run(t, "replay", "recorded  3 landmarks, dim=2, alg=NMF, solver=sgd, seed=7, drift=-1",
				"what-if: solver=batch alg=SVD dim=2 drift=0.2 seed=9", "what-if delta: median ")
		})
		t.Run("peers", func(t *testing.T) {
			t.Parallel()
			rdv := b.start(t, "rendezvous")
			rdv.logged(t, "rendezvous directory listening on")
			fleet := []*process{rdv, b.start(t, "peer0"), b.start(t, "peer1"), b.start(t, "peer2"), b.start(t, "peer3")}
			for _, name := range []string{"peer0-metrics", "peer1-metrics", "peer2-metrics", "peer3-metrics"} {
				eventually(t, name+" to show gossip rounds, exchanges and neighbors", func() bool {
					return metric(addr(name), "ides_gossip_rounds_total") >= 5 &&
						metric(addr(name), "ides_gossip_exchanges_total") >= 1 &&
						metric(addr(name), "ides_gossip_neighbors") >= 1
				}, fleet...)
			}
			// peer3 never announces (it was given a neighbor, not the
			// directory): the directory learns it from the sample riding
			// on another peer's re-announce.
			eventually(t, "the directory to hold all four peers", func() bool {
				return metric(addr("rendezvous-metrics"), "ides_rendezvous_peers") >= 4 &&
					metric(addr("rendezvous-metrics"), "ides_rendezvous_announces_total") >= 4
			}, fleet...)
			for _, p := range fleet {
				p.shutDown(t)
			}
		})
		t.Run("tools", func(t *testing.T) {
			t.Parallel()
			b.run(t, "datagen", "gnp.ids (19x19)")
			b.run(t, "inspect", "dataset   GNP+missing", "low-rank reconstruction (SVD):")
			b.run(t, "datagen-full", "p2psim.ids (1143x1143)")
			b.run(t, "idesbench", "# idesbench scale=full seed=7", "Figure 7(a)")
		})
	})
	for row := range b.rows {
		if !b.ran[row] {
			t.Errorf("binaryCommands row %q was never started: run it, or drop it and the flags only it passes", row)
		}
	}
}
