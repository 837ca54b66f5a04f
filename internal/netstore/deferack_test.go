package netstore

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/testutil"
	"github.com/brb-repro/brb/internal/wire"
)

// countingConn counts the Write calls a server makes on one connection
// and runs onWrite (when set) before each.
type countingConn struct {
	net.Conn
	writes  atomic.Int64
	onWrite func()
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.onWrite != nil {
		c.onWrite()
	}
	return c.Conn.Write(p)
}

// countingListener hands every accepted connection, wrapped in a
// countingConn, to the test.
type countingListener struct {
	net.Listener
	onWrite func()
	conns   chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, onWrite: l.onWrite}
	l.conns <- cc
	return cc, nil
}

// serveCounting serves srv on a loopback countingListener and returns a
// raw client connection plus the server's side of it.
func serveCounting(t *testing.T, srv *Server, onWrite func()) (net.Conn, *countingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln, onWrite: onWrite, conns: make(chan *countingConn, 1)}
	go func() { _ = srv.Serve(cl) }()
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	// Fail instead of hanging if an ack never comes.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn, <-cl.conns
}

// setFrames encodes Sets with seqs first..first+n-1.
func setFrames(first, n int) []byte {
	var b []byte
	for i := first; i < first+n; i++ {
		b = wire.AppendEncode(b, &wire.Set{Seq: uint64(i), Version: uint64(i), Key: "k", Value: []byte("v")})
	}
	return b
}

// readAck reads one frame and checks that it acks seq.
func readAck(t *testing.T, r *bufio.Reader, seq uint64) {
	t.Helper()
	m, err := wire.ReadMessage(r)
	if err != nil {
		t.Fatalf("awaiting ack %d: %v", seq, err)
	}
	if ack, ok := m.(*wire.SetResp); !ok || ack.Seq != seq {
		t.Fatalf("got %#v, want SetResp seq %d", m, seq)
	}
}

// Sets pipelined in one client write are answered in one server write:
// the handler stages each ack and pushes them together before its next
// socket read.
func TestServerAcksPipelinedSetsInOneWrite(t *testing.T) {
	const n = 16
	conn, sconn := serveCounting(t, NewServer(kv.New(0), ServerOptions{Workers: 2}), nil)
	if _, err := conn.Write(setFrames(1, n)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := 1; i <= n; i++ {
		readAck(t, r, uint64(i))
	}
	if w := sconn.writes.Load(); w != 1 {
		t.Fatalf("server answered %d pipelined Sets with %d writes, want 1", n, w)
	}
}

// A Set followed by part of the next frame is acked while the server
// waits for the rest: the read that blocks for the missing bytes pushes
// the staged ack first.
func TestServerAcksSetBeforeTornFrame(t *testing.T) {
	conn, _ := serveCounting(t, NewServer(kv.New(0), ServerOptions{Workers: 2}), nil)
	first, second := setFrames(1, 1), setFrames(2, 1)
	half := len(second) / 2
	if _, err := conn.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	readAck(t, r, 1)
	if _, err := conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	readAck(t, r, 2)
}

// On a durable FsyncAlways server, a Set's ack does not wait for the
// fsync of the Set pipelined behind it. The fsync stall gate is armed by
// the server's first write — the first ack going out — so the second
// Set's fsync is the one held; the first ack must reach the client while
// it is.
func TestDurableServerAckNotHeldByLaterFsync(t *testing.T) {
	inj := kv.NewDiskFaultInjector()
	srv, _, err := NewDurableServer(kv.New(0), ServerOptions{
		Workers:   2,
		DataDir:   t.TempDir(),
		Fsync:     kv.FsyncAlways,
		DiskFault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	var arm sync.Once
	conn, _ := serveCounting(t, srv, func() { arm.Do(func() { inj.StallFsyncs(1) }) })
	if _, err := conn.Write(setFrames(1, 2)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	readAck(t, r, 1)
	testutil.Eventually(t, 10*time.Second, "second Set held at the fsync gate", func() bool {
		return inj.StalledFsyncs() == 1
	})
	inj.Release()
	readAck(t, r, 2)
}

// pendAcks is the number of write verdicts sc still awaits.
func pendAcks(sc *serverConn) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.pendAck)
}

// hinted reports whether slot holds a hint for key.
func hinted(slot *serverSlot, key string) bool {
	slot.hints.mu.Lock()
	defer slot.hints.mu.Unlock()
	_, ok := slot.hints.hints[key]
	return ok
}

// stallCluster is a 1 shard × 2 replica cluster whose replica 1 is a
// durable FsyncAlways server behind a disk fault injector, so a test can
// hold that replica's ack at the fsync gate while replica 0 acks at
// once. Revival is off: hints and down marks stay put for inspection.
type stallCluster struct {
	c    *Cluster
	inj  *kv.DiskFaultInjector
	srv1 *Server
}

func startStallCluster(t *testing.T) *stallCluster {
	t.Helper()
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	inj := kv.NewDiskFaultInjector()
	srvs := []*Server{NewServer(kv.New(0), ServerOptions{Workers: 2, CheckShard: true})}
	srv1, _, err := NewDurableServer(kv.New(0), ServerOptions{
		Workers: 2, CheckShard: true, DataDir: t.TempDir(), Fsync: kv.FsyncAlways, DiskFault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvs = append(srvs, srv1)
	addrs := make([]string, 2)
	for r, srv := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := srv
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(srv.Close)
		addrs[m.Server(0, r)] = ln.Addr().String()
	}
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Release any stalled fsync before the servers close.
	t.Cleanup(inj.Release)
	return &stallCluster{c: c, inj: inj, srv1: srv1}
}

func (s *stallCluster) slot(r int) *serverSlot { return s.c.state.Load().slotOf(0, r) }

// setAsync runs a Set in the background; the returned channel yields
// its error.
func (s *stallCluster) setAsync(ctx context.Context, key string, opts WriteOptions) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.c.Set(ctx, key, []byte("v"), opts) }()
	return done
}

// awaitHeld waits until replica 0 has acked and replica 1's verdict is
// the one still awaited, held at the fsync gate.
func (s *stallCluster) awaitHeld(t *testing.T, sc0, sc1 *serverConn) {
	t.Helper()
	testutil.Eventually(t, 10*time.Second, "replica 0 acked, replica 1 held at the fsync gate", func() bool {
		return s.inj.StalledFsyncs() == 1 && pendAcks(sc0) == 0 && pendAcks(sc1) == 1
	})
}

// A ctx cancelled while one replica's ack is outstanding abandons that
// wait: the fan-out leaves nothing in pendAck, the write succeeds on the
// replica that acked, and the cut replica is hinted but not marked down.
func TestClusterWriteCtxCutMidFanout(t *testing.T) {
	s := startStallCluster(t)
	sc0, sc1 := s.slot(0).primary(), s.slot(1).primary()
	s.inj.StallFsyncs(1)
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	done := s.setAsync(ctx, "k", WriteOptions{})
	s.awaitHeld(t, sc0, sc1)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Set with one ack = %v, want nil", err)
	}
	if n := pendAcks(sc1); n != 0 {
		t.Fatalf("%d acks still pending on the cut replica's connection", n)
	}
	if !hinted(s.slot(1), "k") {
		t.Fatal("ctx-cut replica not hinted")
	}
	if s.slot(1).down.Load() {
		t.Fatal("ctx-cut replica marked down")
	}
}

// A replica whose connection dies while its ack is awaited gets an
// error verdict from the read loop: it is hinted and marked down, and
// its connection's pendAck is empty.
func TestClusterWriteReplicaKilledMidFanout(t *testing.T) {
	s := startStallCluster(t)
	sc0, sc1 := s.slot(0).primary(), s.slot(1).primary()
	s.inj.StallFsyncs(1)
	done := s.setAsync(bg, "k", WriteOptions{})
	s.awaitHeld(t, sc0, sc1)
	s.srv1.Kill()
	if err := <-done; err != nil {
		t.Fatalf("Set with one ack = %v, want nil", err)
	}
	if n := pendAcks(sc1); n != 0 {
		t.Fatalf("%d acks still pending on the dead connection", n)
	}
	if !hinted(s.slot(1), "k") {
		t.Fatal("killed replica not hinted")
	}
	if !s.slot(1).down.Load() {
		t.Fatal("killed replica not marked down")
	}
}

// A WriteAny returns at its first ack while the straggler is still
// awaited; the background drainer collects the straggler's verdict when
// it lands, leaving pendAck empty, no hint and no down mark.
func TestClusterWriteAnyStragglerDrained(t *testing.T) {
	s := startStallCluster(t)
	sc1 := s.slot(1).primary()
	s.inj.StallFsyncs(1)
	if err := s.c.Set(bg, "k", []byte("v"), WriteOptions{Fanout: WriteAny}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 10*time.Second, "straggler held at the fsync gate", func() bool {
		return s.inj.StalledFsyncs() == 1
	})
	if n := pendAcks(sc1); n != 1 {
		t.Fatalf("straggler: %d pending acks, want 1", n)
	}
	s.inj.Release()
	testutil.Eventually(t, 10*time.Second, "straggler's ack drained", func() bool {
		return pendAcks(sc1) == 0
	})
	if hinted(s.slot(1), "k") || s.slot(1).down.Load() {
		t.Fatal("acked straggler was hinted or marked down")
	}
}
