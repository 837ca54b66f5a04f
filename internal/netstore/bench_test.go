package netstore

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
)

// benchStore starts one unsharded server on loopback with nKeys
// preloaded and returns a connected 1-shard × 1-replica client. The
// caller must Close both.
func benchStore(b testing.TB, nKeys int) (*Server, *Cluster) {
	b.Helper()
	store := kv.New(0)
	for i := 0; i < nKeys; i++ {
		store.Set(fmt.Sprintf("key:%d", i), make([]byte, 128))
	}
	srv := NewServer(store, ServerOptions{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	c, err := DialCluster([]string{ln.Addr().String()}, ClusterOptions{Topology: m})
	if err != nil {
		b.Fatal(err)
	}
	return srv, c
}

// pipelineKeys are the 8 keys of BenchmarkServerPipeline's batch.
func pipelineKeys(nKeys int) []string {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i%nKeys)
	}
	return keys
}

// pipelineOp is one BenchmarkServerPipeline round trip.
func pipelineOp(tb testing.TB, c *Cluster, keys []string) {
	res, err := c.Multiget(bg, keys, ReadOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Values) != len(keys) {
		tb.Fatalf("got %d values", len(res.Values))
	}
}

// BenchmarkServerPipeline measures the full batched-read round trip —
// client encode, server decode/schedule/serve, response encode, client
// decode — for an 8-key batch. allocs/op covers both endpoints; this is
// the hot path whose per-frame allocation cost the pooled codec and
// coalesced ConnWriter are meant to eliminate. TestServerPipelineAllocs
// guards its allocation count.
func BenchmarkServerPipeline(b *testing.B) {
	const nKeys = 64
	srv, c := benchStore(b, nKeys)
	defer srv.Close()
	defer c.Close()
	keys := pipelineKeys(nKeys)
	// Warm size cache and connections.
	pipelineOp(b, c, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipelineOp(b, c, keys)
	}
}

// maxPipelineAllocs bounds BenchmarkServerPipeline's allocations per
// round trip, both endpoints counted: the floor the pooled codec first
// reached. If a change lifts it past the bound, find the new
// allocations with -memprofilerate=1 and remove them — don't raise the
// bound.
const maxPipelineAllocs = 36

func TestServerPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const nKeys = 64
	srv, c := benchStore(t, nKeys)
	defer srv.Close()
	defer c.Close()
	keys := pipelineKeys(nKeys)
	pipelineOp(t, c, keys)
	avg := testing.AllocsPerRun(500, func() { pipelineOp(t, c, keys) })
	t.Logf("ServerPipeline round trip: %.1f allocs/op", avg)
	if avg > maxPipelineAllocs {
		t.Errorf("ServerPipeline round trip: %.1f allocs/op, want ≤ %d", avg, maxPipelineAllocs)
	}
}

// benchSetCluster starts the perfbench preload shape — 1 shard × 2
// replicas, one connection each — and returns its client and a 1 KiB
// value.
func benchSetCluster(tb testing.TB) (*Cluster, []byte) {
	tb.Helper()
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, _ := startShardedCluster(tb, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c, make([]byte, 1024)
}

// BenchmarkClusterSetParallel measures replicated writes in the shape
// of perfbench's preload: 16 writers share one Cluster whose Sets each
// fan out to both replicas of one shard over one connection per
// replica, 1 KiB values. It exercises the client's inline write fan-out
// and the server's staged acks. TestClusterSetAllocs guards its
// allocation count.
func BenchmarkClusterSetParallel(b *testing.B) {
	const writers = 16
	c, val := benchSetCluster(b)
	if err := c.Set(bg, "key:0", val, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if err := c.Set(bg, fmt.Sprintf("key:%d", i%4096), val, WriteOptions{}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// maxClusterSetAllocs bounds one replicated Cluster.Set (1 shard × 2
// replicas, both endpoints counted), as measured with the inline write
// fan-out and staged server acks. Don't raise it; find what allocates.
const maxClusterSetAllocs = 28

func TestClusterSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c, val := benchSetCluster(t)
	const key = "key:0"
	if err := c.Set(bg, key, val, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := c.Set(bg, key, val, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Cluster.Set: %.1f allocs/op", avg)
	if avg > maxClusterSetAllocs {
		t.Errorf("Cluster.Set: %.1f allocs/op, want ≤ %d", avg, maxClusterSetAllocs)
	}
}

// BenchmarkServerSaturation drives one server to saturation from many
// client goroutines over loopback and reports aggregate read throughput
// (keys/s). The values are 4 KiB — past the writev threshold, so the
// response path exercises the vectored burst writer — and the sharded
// variant enables both PR 9 server-side levers: per-core scheduler
// shards (vs a single global lock+heap) and two connections per
// replica. Run with -cpu 1,2,4 to see the scaling; at GOMAXPROCS 1 the
// sharded default collapses to one shard and the two variants converge.
func BenchmarkServerSaturation(b *testing.B) {
	const (
		nKeys     = 512
		valSize   = 4096
		batchKeys = 8
		nClients  = 4
	)
	for _, cfg := range []struct {
		name        string
		schedShards int // ServerOptions.SchedShards (0 = per-core default)
		conns       int // ClusterOptions.ConnsPerReplica
	}{
		{"unsharded", 1, 1},
		{"sharded", 0, 2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			store := kv.New(0)
			for i := 0; i < nKeys; i++ {
				store.Set(fmt.Sprintf("key:%d", i), make([]byte, valSize))
			}
			workers := runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			srv := NewServer(store, ServerOptions{Workers: workers, SchedShards: cfg.schedShards})
			defer srv.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
			m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
			clients := make([]*Cluster, nClients)
			for i := range clients {
				c, err := DialCluster([]string{ln.Addr().String()}, ClusterOptions{
					Topology:        m,
					ConnsPerReplica: cfg.conns,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			// Warm connections and size caches.
			warm := []string{"key:0"}
			for _, c := range clients {
				if _, err := c.Multiget(bg, warm, ReadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := clients[int(next.Add(1))%nClients]
				keys := make([]string, batchKeys)
				off := int(next.Add(1)) * 31
				for pb.Next() {
					for i := range keys {
						keys[i] = fmt.Sprintf("key:%d", (off+i)%nKeys)
					}
					off += batchKeys
					res, err := c.Multiget(bg, keys, ReadOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Values) != batchKeys {
						b.Fatalf("got %d values", len(res.Values))
					}
				}
			})
			b.ReportMetric(float64(b.N*batchKeys)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkSchedShards isolates the scheduler itself — no sockets, no
// codec — so the cost of the queue lock is visible even on machines
// where the end-to-end saturation benchmark is bottlenecked elsewhere
// (a single-core box time-slices BenchmarkServerSaturation's clients
// and server, burying lock contention in scheduling noise). Producers
// push 8-item batches and the worker pool pops them; global=1 shard is
// the pre-sharding scheduler, percore spreads the same load over
// GOMAXPROCS shards.
func BenchmarkSchedShards(b *testing.B) {
	const batchItems = 8
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"global", 1},
		{"percore", runtime.GOMAXPROCS(0)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := newScheduler(Priority, cfg.shards)
			workers := runtime.GOMAXPROCS(0)
			if workers < 2 {
				workers = 2
			}
			var served atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(home int) {
					defer wg.Done()
					for {
						if _, _, ok := s.pop(home % cfg.shards); !ok {
							return
						}
						served.Add(1)
					}
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					items := make([]workItem, batchItems)
					for i := range items {
						items[i].priority = int64(i)
					}
					s.pushAll(items)
				}
			})
			s.close()
			wg.Wait()
			b.StopTimer()
			if got := served.Load(); got != int64(b.N)*batchItems {
				b.Fatalf("served %d of %d items", got, int64(b.N)*batchItems)
			}
			b.ReportMetric(float64(b.N*batchItems)/b.Elapsed().Seconds(), "items/s")
		})
	}
}
