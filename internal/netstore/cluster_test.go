package netstore

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
)

// startShardedCluster launches shards×replicas shard-checking servers on
// loopback, each with its own store, in dense topology order.
func startShardedCluster(t testing.TB, m *cluster.ShardTopology, optsFor func(shard, replica int) ServerOptions) ([]string, []*Server) {
	t.Helper()
	addrs := make([]string, m.NumServers())
	servers := make([]*Server, m.NumServers())
	for s := 0; s < m.Shards(); s++ {
		for r := 0; r < m.Replicas(); r++ {
			opts := ServerOptions{Workers: 2}
			if optsFor != nil {
				opts = optsFor(s, r)
			}
			opts.Shard = s
			opts.CheckShard = true
			srv := NewServer(kv.New(0), opts)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
			sid := m.Server(s, r)
			addrs[sid] = ln.Addr().String()
			servers[sid] = srv
			t.Cleanup(srv.Close)
		}
	}
	return addrs, servers
}

func TestClusterMultigetScatterGather(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 3, Replicas: 2})
	addrs, _ := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Set(bg, fmt.Sprintf("key:%d", i), []byte(fmt.Sprintf("value-%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// One multiget spanning all shards, with a missing key mixed in.
	ks := make([]string, 0, 21)
	for i := 0; i < 20; i++ {
		ks = append(ks, fmt.Sprintf("key:%d", i*7))
	}
	ks = append(ks, "missing:1")
	res, err := c.Multiget(bg, ks, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shardsTouched := map[int]bool{}
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("value-%d", i*7)
		if !res.Found[i] || string(res.Values[i]) != want {
			t.Fatalf("key %s: found=%v value=%q, want %q", ks[i], res.Found[i], res.Values[i], want)
		}
		shardsTouched[m.ShardOfKey(ks[i])] = true
	}
	if res.Found[20] || res.Values[20] != nil {
		t.Fatalf("missing key reported found: %v %q", res.Found[20], res.Values[20])
	}
	if len(shardsTouched) < 2 {
		t.Fatalf("multiget touched %d shards; want a cross-shard scatter", len(shardsTouched))
	}
	if res.Bottleneck <= 0 {
		t.Fatalf("bottleneck forecast %d, want positive", res.Bottleneck)
	}
}

func TestClusterFailoverOnKilledReplica(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 3, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 120
	for i := 0; i < keys; i++ {
		if err := c.Set(bg, fmt.Sprintf("key:%d", i), []byte(fmt.Sprintf("v%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill replica 0 of every shard: every sub-task that ranked it first
	// must fail over to replica 1 and still return correct data.
	for s := 0; s < m.Shards(); s++ {
		servers[m.Server(s, 0)].Close()
	}
	for round := 0; round < 10; round++ {
		ks := make([]string, 12)
		for j := range ks {
			ks[j] = fmt.Sprintf("key:%d", (round*12+j)%keys)
		}
		res, err := c.Multiget(bg, ks, ReadOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for j, k := range ks {
			want := fmt.Sprintf("v%d", (round*12+j)%keys)
			if !res.Found[j] || string(res.Values[j]) != want {
				t.Fatalf("round %d key %s: found=%v value=%q want %q", round, k, res.Found[j], res.Values[j], want)
			}
		}
	}
	downSeen := false
	for s := 0; s < m.Shards(); s++ {
		if c.ReplicaDown(s, 0) {
			downSeen = true
		}
		if c.ReplicaDown(s, 1) {
			t.Fatalf("live replica 1 of shard %d marked down", s)
		}
	}
	if !downSeen {
		t.Fatal("no killed replica was marked down after 10 rounds")
	}

	// Writes must also survive on the remaining replica.
	if err := c.Set(bg, "key:0", []byte("rewritten"), WriteOptions{}); err != nil {
		t.Fatalf("Set after kill: %v", err)
	}
	res, err := c.Multiget(bg, []string{"key:0"}, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Values[0]) != "rewritten" {
		t.Fatalf("read-after-write got %q", res.Values[0])
	}
}

func TestClusterAllReplicasDead(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv.Close()
	}
	// Every replica dies: Multiget must return ErrNoReplica, not hang.
	var lastErr error
	for i := 0; i < 3; i++ {
		if _, lastErr = c.Multiget(bg, []string{"k"}, ReadOptions{}); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("Multiget succeeded with every replica dead")
	}
}

// TestClusterC3SteersToFastReplica makes one replica of a single shard
// 20× slower than the other; after a feedback warm-up the C3 scorer must
// route the bulk of the work to the fast replica.
func TestClusterC3SteersToFastReplica(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, func(shard, replica int) ServerOptions {
		delay := 200 * time.Microsecond
		if replica == 0 {
			delay = 4 * time.Millisecond
		}
		return ServerOptions{
			Workers:      1,
			ServiceDelay: func(int64) time.Duration { return delay },
		}
	})
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ServerWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if err := c.Set(bg, fmt.Sprintf("key:%d", i), []byte("x"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := c.Multiget(bg, []string{fmt.Sprintf("key:%d", i%20)}, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	slow := servers[m.Server(0, 0)].Served()
	fast := servers[m.Server(0, 1)].Served()
	// Discount the 40 loader writes that hit both replicas equally.
	slowReads, fastReads := int(slow)-20, int(fast)-20
	if fastReads <= 2*slowReads {
		t.Fatalf("C3 steering too weak: fast replica served %d reads, slow %d", fastReads, slowReads)
	}
	if c.ScoreOf(0, 0) <= c.ScoreOf(0, 1) {
		t.Fatalf("slow replica scored better: %v vs %v", c.ScoreOf(0, 0), c.ScoreOf(0, 1))
	}
}

func TestClusterMisroutedSurfaces(t *testing.T) {
	// A server that believes it is shard 1 while the client's map says
	// shard 0 must reject the batch, and the client must surface it.
	srv := NewServer(kv.New(0), ServerOptions{Workers: 1, Shard: 1, CheckShard: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)

	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	c, err := DialCluster([]string{ln.Addr().String()}, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Multiget(bg, []string{"k"}, ReadOptions{}); err == nil {
		t.Fatal("misrouted batch did not surface an error")
	}
}

// TestDialClusterToleratesDeadReplica: a replica that is already dead at
// connect time starts marked down; the client comes up on the survivors.
// A shard with no live replica at all fails the dial.
func TestDialClusterToleratesDeadReplica(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	servers[m.Server(0, 0)].Close()
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatalf("dial with one dead replica: %v", err)
	}
	defer c.Close()
	if !c.ReplicaDown(0, 0) {
		t.Fatal("dead replica not marked down at dial time")
	}
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Multiget(bg, []string{"k"}, ReadOptions{})
	if err != nil || !res.Found[0] {
		t.Fatalf("Multiget on survivors: %v found=%v", err, res.Found)
	}

	// Kill the whole of shard 1: dialing must now fail with ErrNoReplica.
	servers[m.Server(1, 0)].Close()
	servers[m.Server(1, 1)].Close()
	if _, err := DialCluster(addrs, ClusterOptions{Topology: m}); err == nil {
		t.Fatal("dial succeeded with a fully-dead shard")
	}
}

// TestClusterAttachController: a sharded client attached to a credits
// controller reports demand and receives grants over the dense
// shard·R+replica server space; the workload keeps completing.
func TestClusterAttachController(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs, _ := startShardedCluster(t, m, nil)
	ctrl, ctrlAddr := startController(t, ControllerOptions{
		Clients: 1, Servers: m.NumServers(), CapacityPerNano: 2, Interval: 20 * time.Millisecond,
	})
	defer ctrl.Close()

	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AttachController(ctrlAddr, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Set(bg, fmt.Sprintf("key:%d", i), []byte("v"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Keep multiget traffic flowing (reports ride on it) until a
	// report → grant round trip lands a credit balance.
	waitFor(t, 3*time.Second, "credit grant reaching the cluster client", func() bool {
		for i := 0; i < 20; i++ {
			if _, err := c.Multiget(bg, []string{fmt.Sprintf("key:%d", i%50)}, ReadOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < m.Shards(); s++ {
			for r := 0; r < m.Replicas(); r++ {
				if c.CreditBalance(s, r) != 0 {
					return true
				}
			}
		}
		return false
	})
}

func TestDialClusterValidation(t *testing.T) {
	if _, err := DialCluster(nil, ClusterOptions{}); err == nil {
		t.Fatal("nil shard map accepted")
	}
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	if _, err := DialCluster([]string{"127.0.0.1:1"}, ClusterOptions{Topology: m}); err == nil {
		t.Fatal("address/shard-map size mismatch accepted")
	}
}
