package netstore

import (
	"fmt"
	"strings"
	"testing"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
)

// TestCheckReplicas drives the post-recovery checker against a 2×2
// cluster whose replica stores are edited directly to plant each kind
// of violation: version disagreement, presence disagreement, an acked
// key missing everywhere, an acked key held below its floor, and an
// acked write whose kind flipped at its own version (a Set come back as
// a tombstone, a Delete come back as a value). A key deleted at its
// acked version must pass.
func TestCheckReplicas(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	topo := mustWithAddrs(t, m, addrs)
	c, err := DialCluster(nil, ClusterOptions{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// write sets n keys with the given prefix (deleting every third
	// one) and returns them with their acked writes.
	write := func(t *testing.T, prefix string, n int) ([]string, map[string]AckedWrite) {
		t.Helper()
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s:%d", prefix, i)
			if err := c.Set(bg, keys[i], []byte("v"), WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := c.Delete(bg, keys[i], WriteOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return keys, writtenFloors(c, keys)
	}
	// replicaStore returns the store of replica r of key's owner shard.
	replicaStore := func(key string, r int) *kv.Store {
		return servers[topo.Server(topo.ShardOfKey(key), r)].Store()
	}
	// violations asserts CheckReplicas reports exactly want violating
	// keys, each description naming its key.
	violations := func(t *testing.T, keys []string, acked map[string]AckedWrite, want int, names ...string) {
		t.Helper()
		err := CheckReplicas(bg, topo, keys, acked)
		if wantPrefix := fmt.Sprintf("%d of %d keys violate ", want, len(keys)); err == nil || !strings.HasPrefix(err.Error(), wantPrefix) {
			t.Fatalf("CheckReplicas = %v, want %q…", err, wantPrefix)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name+" on shard") {
				t.Fatalf("verdict does not name %s: %v", name, err)
			}
		}
	}

	t.Run("clean with tombstones", func(t *testing.T) {
		keys, acked := write(t, "clean", 30)
		deleted := 0
		for _, k := range keys {
			if _, _, found := replicaStore(k, 0).GetVersion(k); !found {
				deleted++
			}
		}
		if deleted == 0 {
			t.Fatal("no tombstone planted")
		}
		if err := CheckReplicas(bg, topo, keys, acked); err != nil {
			t.Fatalf("a key deleted at its acked version must pass: %v", err)
		}
		if err := CheckReplicas(bg, topo, keys, nil); err != nil {
			t.Fatalf("agreeing replicas without floors: %v", err)
		}
	})

	t.Run("version disagreement", func(t *testing.T) {
		keys, acked := write(t, "disagree", 6)
		k := keys[1]
		replicaStore(k, 1).SetVersion(k, []byte("newer"), acked[k].Version+1)
		violations(t, keys, acked, 1, k)
		violations(t, keys, nil, 1, k)
	})

	t.Run("presence disagreement", func(t *testing.T) {
		keys, acked := write(t, "presence", 6)
		k := keys[1] // set, not deleted: tombstone it on one replica at the same version
		st := replicaStore(k, 0)
		st.Delete(k)
		st.DeleteVersion(k, acked[k].Version)
		violations(t, keys, acked, 1, k)
		violations(t, keys, nil, 1, k)
	})

	t.Run("acked key missing everywhere", func(t *testing.T) {
		keys, acked := write(t, "missing", 6)
		keys = append(keys, "missing:never-written")
		acked["missing:never-written"] = AckedWrite{Version: 1}
		violations(t, keys, acked, 1, "missing:never-written")
	})

	t.Run("acked key below its floor", func(t *testing.T) {
		keys, acked := write(t, "floor", 6)
		for _, k := range []string{keys[0], keys[2]} { // a tombstone and a value, one version short
			w := acked[k]
			w.Version++
			acked[k] = w
		}
		violations(t, keys, acked, 2, keys[0], keys[2])
	})

	t.Run("acked write of the wrong kind at its floor", func(t *testing.T) {
		keys, acked := write(t, "kind", 6)
		set, del := keys[1], keys[0]
		if acked[set].Delete || !acked[del].Delete {
			t.Fatalf("acked kinds %+v / %+v, want a Set and a Delete", acked[set], acked[del])
		}
		// A Set acked after a Delete is the key's newest acked write.
		reset := keys[3]
		if err := c.Set(bg, reset, []byte("again"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		if w, _ := c.LastWrite(reset); w.Delete || w.Version <= acked[reset].Version {
			t.Fatalf("LastWrite after delete+set = %+v, want a Set above v%d", w, acked[reset].Version)
		}
		// Both replicas agree, at exactly the acked versions: only the
		// kind of what they hold is wrong.
		for r := 0; r < 2; r++ {
			st := replicaStore(set, r)
			st.Delete(set)
			st.DeleteVersion(set, acked[set].Version)
			st = replicaStore(del, r)
			st.Delete(del)
			st.SetVersion(del, []byte("resurrected"), acked[del].Version)
		}
		violations(t, keys, acked, 2, set, del)
		if err := CheckReplicas(bg, topo, keys, nil); err != nil {
			t.Fatalf("agreeing replicas without floors: %v", err)
		}
	})

	t.Run("multi-shard key set scanned per owner", func(t *testing.T) {
		keys, acked := write(t, "owners", 40)
		var onShard [2][]string
		for _, k := range keys {
			onShard[topo.ShardOfKey(k)] = append(onShard[topo.ShardOfKey(k)], k)
		}
		if len(onShard[0]) == 0 || len(onShard[1]) == 0 {
			t.Fatalf("keys cover shards %d/%d; want both", len(onShard[0]), len(onShard[1]))
		}
		// Shard-checking servers reject a scan sent to the wrong shard,
		// so a clean pass means every key went to its owner.
		if err := CheckReplicas(bg, topo, keys, acked); err != nil {
			t.Fatal(err)
		}
		k := onShard[1][1]
		replicaStore(k, 0).SetVersion(k, []byte("newer"), acked[k].Version+1)
		violations(t, keys, acked, 1, k)
		if err := CheckReplicas(bg, topo, onShard[0], acked); err != nil {
			t.Fatalf("shard 0 alone is clean: %v", err)
		}
	})
}

// writtenFloors returns c's last acked write of each of keys it wrote
// — the floors CheckReplicas holds every owner replica to.
func writtenFloors(c *Cluster, keys []string) map[string]AckedWrite {
	acked := map[string]AckedWrite{}
	for _, k := range keys {
		if w, ok := c.LastWrite(k); ok {
			acked[k] = w
		}
	}
	return acked
}
