// Command brb-load drives a cluster of brb-server processes with a
// SoundCloud-like batched-read workload and reports task latency
// percentiles — the networked counterpart of brb-sim's Figure 2 runs.
//
// Every run drives one netstore.Cluster client per connection. Addresses
// are dense shard·R+replica order — replicas of shard 0 first, then
// shard 1, as launched by `brb-server -shard s -group-listen ...` — keys
// consistent-hash across shards, and each task scatter-gathers with C3
// replica selection:
//
//	brb-load -shards 3 -replication 2 \
//	         -servers :7071,:7072,:7073,:7074,:7075,:7076
//
// Without -shards the shard count is len(-servers) ÷ -replication, so
// three unsharded servers (`brb-server -listen` on :7071..:7073) with
// -replication 3 run as one shard of three replicas:
//
//	brb-load -servers 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	         -replication 3 -keys 1000 -tasks 5000 -fanout 8.6 \
//	         -assigner EqualMax [-controller 127.0.0.1:7080]
//
// Replica outage (requires -spawn): -kill-replica stops one in-process
// server mid-run (Server.Close: live connections drop, dials fail) and
// restarts it on its old address after -restart-after, over its
// surviving store, or from its data directory on a durable spawn. This
// exercises the client's down-marking, hinted handoff, revival probing,
// and read-repair; -write-frac mixes writes into the measurement phase so
// the outage creates real divergence. The run logs whether the outage
// fell within the load (a closed-loop run can finish before
// -kill-after), and a post-run netstore.CheckReplicas scan reports
// whether every shard's replicas version-converged and hold every
// acked write:
//
//	brb-load -shards 3 -replication 2 -spawn \
//	         -write-frac 0.1 -kill-replica 4 -kill-after 2s -restart-after 3s
//
// Tail-cutting: -spawn runs the cluster's servers in-process with fault
// injectors attached, -slow-replica slows one of them by -slow-latency per
// request after the load phase, and -hedge re-issues straggling batches
// to the next-ranked replica (fixed delay or adaptive C3 quantile
// trigger). -cache adds a versioned hot-key client cache, which -zipf
// makes visible by concentrating reads:
//
//	brb-load -shards 2 -replication 2 -spawn \
//	         -hedge adaptive -cache 256 -zipf 1.1 \
//	         -slow-replica 0 -slow-latency 5ms
//
// Crash recovery (requires -spawn): -crash-replica hard-kills one
// in-process server mid-run — no flush, no final snapshot, the process
// equivalent of SIGKILL — and -recover-after later restarts it from its
// WAL + snapshot directory (-data-dir, a temp dir by default; -fsync
// picks the WAL sync policy). The run then waits for revival and hinted
// handoff, sweeps the keyspace, and asserts that the restarted replica
// serves every acknowledged write at at least its acked version:
//
//	brb-load -shards 2 -replication 2 -spawn -write-frac 0.2 \
//	         -crash-replica 1 -crash-after 2s -recover-after 1s
//
// Live rebalancing: -add-shard-after grows the cluster by one shard
// mid-run (spawning the new shard's replicas in-process),
// -remove-shard-after drains the highest shard onto the survivors. Both
// push the epoch-versioned topology to every server at startup, run the
// migration under the measurement load, and finish with a convergence
// scan proving every key lives on its new owner with all replicas
// agreeing and no acked write lost:
//
//	brb-load -shards 3 -replication 2 -servers ... \
//	         -write-frac 0.1 -add-shard-after 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/randx"
)

func main() {
	serversFlag := flag.String("servers", "127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073", "comma-separated server addresses")
	controller := flag.String("controller", "", "credits controller address (optional)")
	shards := flag.Int("shards", 0, "shard groups, addresses in dense shard·R+replica order (0 = len(-servers) / -replication)")
	replication := flag.Int("replication", 3, "replicas per shard")
	keys := flag.Int("keys", 1000, "key-space size to load")
	tasks := flag.Int("tasks", 5000, "tasks to issue")
	clients := flag.Int("clients", 4, "concurrent client connections")
	fanout := flag.Float64("fanout", 8.6, "mean task fan-out")
	burstProb := flag.Float64("burst-prob", 0.02, "playlist-burst probability")
	assignerName := flag.String("assigner", "EqualMax", "priority assigner: EqualMax|UnifIncr|UnifIncrSub|Oblivious|SJFReq")
	seed := flag.Uint64("seed", 1, "workload seed")
	skipLoad := flag.Bool("skip-load", false, "skip the initial data load")
	allocStats := flag.Bool("allocstats", false, "report client-process allocs/op and bytes/op over the measurement phase")
	writeFrac := flag.Float64("write-frac", 0, "fraction of tasks that are writes instead of multigets (fault runs need >0 to create divergence)")
	killReplica := flag.Int("kill-replica", -1, "dense server index stopped mid-run and restarted on its address (requires -spawn; -1 = off)")
	killAfter := flag.Duration("kill-after", 2*time.Second, "measurement time before the fault is injected")
	restartAfter := flag.Duration("restart-after", 3*time.Second, "outage duration before the stopped replica restarts")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "cluster client's replica revival probe interval")
	addShardAfter := flag.Duration("add-shard-after", 0, "measurement time before a new shard is added live (0 = off)")
	removeShardAfter := flag.Duration("remove-shard-after", 0, "measurement time before the highest shard is drained live (0 = off)")
	deadline := flag.Duration("deadline", 0, "per-task deadline propagated to the servers (0 = the client's default request timeout); tasks that exceed it count as expired in the run output instead of aborting the client")
	hedgeMode := flag.String("hedge", "off", "hedged reads: off|fixed|adaptive")
	hedgeDelay := flag.Duration("hedge-delay", 0, "hedge trigger delay (fixed mode) and cold-start floor (adaptive); 0 = policy default")
	hedgeQuantile := flag.Float64("hedge-quantile", 0, "adaptive hedge trigger quantile in (0,1); 0 = policy default")
	cacheSize := flag.Int("cache", 0, "client hot-key cache entries per client (0 = off)")
	connsPerReplica := flag.Int("conns-per-replica", 1, "TCP connections per replica per client, batches round-robin across them")
	spawn := flag.Bool("spawn", false, "spawn the cluster's servers in-process instead of dialing -servers (self-contained smoke runs)")
	slowReplica := flag.Int("slow-replica", -1, "dense server index slowed by -slow-latency per request after the load phase (requires -spawn; -1 = none)")
	slowLatency := flag.Duration("slow-latency", 2*time.Millisecond, "added service latency for -slow-replica")
	zipfS := flag.Float64("zipf", 0, "Zipf exponent for key popularity (0 = uniform; >1 concentrates reads on hot keys)")
	crashReplica := flag.Int("crash-replica", -1, "dense server index to hard-kill mid-run, in-process SIGKILL equivalent (requires -spawn; -1 = off)")
	crashAfter := flag.Duration("crash-after", 2*time.Second, "measurement time before the crash")
	recoverAfter := flag.Duration("recover-after", 1*time.Second, "downtime before the crashed server restarts from its WAL + snapshot directory")
	dataDir := flag.String("data-dir", "", "durable spawn: WAL + snapshot root, one subdirectory per server (empty = a temp dir when -crash-replica is set)")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy for durable spawned servers: always | interval | never")
	specPath := flag.String("spec", "", "declarative workload spec, YAML or JSON (see internal/loadgen); overrides the legacy workload flags -keys/-tasks/-clients/-fanout/-burst-prob/-write-frac/-zipf/-seed")
	printSpec := flag.Bool("print-spec", false, "print the effective workload spec as canonical YAML and exit (legacy flags compile to a spec too)")
	recordPath := flag.String("record", "", "record the run's op trace to this JSONL file before executing (a .gz suffix compresses)")
	replayPath := flag.String("replay", "", "replay a previously recorded op trace instead of generating a workload (mutually exclusive with -spec)")
	flag.Parse()

	bg := context.Background()

	addrs := strings.Split(*serversFlag, ",")
	if *shards < 0 || *replication < 1 {
		fmt.Fprintln(os.Stderr, "brb-load: -shards must be >= 0 and -replication >= 1")
		os.Exit(2)
	}
	if *shards == 0 {
		if len(addrs)%*replication != 0 {
			fmt.Fprintf(os.Stderr, "brb-load: %d -servers addresses do not split into shards of -replication %d; pass -shards\n", len(addrs), *replication)
			os.Exit(2)
		}
		*shards = len(addrs) / *replication
	}
	assigner, err := core.NewAssigner(*assignerName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-load:", err)
		os.Exit(2)
	}

	var hedgePol netstore.HedgePolicy
	switch *hedgeMode {
	case "off":
	case "fixed":
		hedgePol = netstore.HedgePolicy{Mode: netstore.HedgeFixed, Delay: *hedgeDelay}
	case "adaptive":
		hedgePol = netstore.HedgePolicy{Mode: netstore.HedgeAdaptive, Delay: *hedgeDelay, Quantile: *hedgeQuantile}
	default:
		fmt.Fprintf(os.Stderr, "brb-load: -hedge %q: want off, fixed, or adaptive\n", *hedgeMode)
		os.Exit(2)
	}
	if err := hedgePol.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "brb-load:", err)
		os.Exit(2)
	}

	// Workload resolution: every run executes a loadgen op sequence —
	// replayed from a trace, generated from a spec file, or generated
	// from the legacy flags compiled down to an equivalent spec. The
	// spec's keyspace and seed override the flags so the load phase and
	// the post-run convergence scans address the same keys the ops do.
	var header loadgen.TraceHeader
	var wops []loadgen.Op
	if *replayPath != "" {
		if *specPath != "" || *printSpec {
			fmt.Fprintln(os.Stderr, "brb-load: -replay is mutually exclusive with -spec/-print-spec (the trace already fixes the workload)")
			os.Exit(2)
		}
		header, wops, err = loadgen.ReadTraceFile(*replayPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		*keys, *seed = header.Keys, header.Seed
		log.Printf("replaying %d ops from %s (workload %q, seed %d)", len(wops), *replayPath, header.Name, header.Seed)
	} else {
		wspec, err := loadWorkloadSpec(*specPath, legacyFlags{
			seed: *seed, keys: *keys, tasks: *tasks, clients: *clients,
			fanout: *fanout, burstProb: *burstProb, writeFrac: *writeFrac, zipfS: *zipfS,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		if *printSpec {
			fmt.Print(loadgen.EncodeYAML(wspec))
			return
		}
		*keys, *seed = wspec.Keys, wspec.Seed
		wops, err = loadgen.Generate(wspec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		header = loadgen.NewTraceHeader(wspec)
	}
	if *recordPath != "" {
		// Record before running: the trace is the op *schedule*, fully
		// determined pre-execution, so a recorded generated run and a
		// recorded replay of it are byte-identical.
		if err := loadgen.WriteTraceFile(*recordPath, header, wops); err != nil {
			log.Fatalf("brb-load: record: %v", err)
		}
		log.Printf("recorded %d ops to %s", len(wops), *recordPath)
	}
	totalConns := countStreams(wops)

	// Every fault flag acts on an in-process server, so all of them need
	// -spawn; a crash also needs a surviving sibling so writes keep
	// succeeding and hinted handoff has a donor during the outage.
	n := *shards * *replication
	for _, f := range []struct {
		name   string
		server int
	}{{"kill-replica", *killReplica}, {"crash-replica", *crashReplica}, {"slow-replica", *slowReplica}} {
		switch {
		case f.server < 0:
		case !*spawn:
			fmt.Fprintf(os.Stderr, "brb-load: -%s needs -spawn (it faults an in-process server)\n", f.name)
			os.Exit(2)
		case f.server >= n:
			fmt.Fprintf(os.Stderr, "brb-load: -%s %d out of range (%d servers)\n", f.name, f.server, n)
			os.Exit(2)
		}
	}
	rebalancing := *addShardAfter > 0 || *removeShardAfter > 0
	switch {
	case *crashReplica >= 0 && *replication < 2:
		fmt.Fprintln(os.Stderr, "brb-load: -crash-replica needs -replication >= 2 (writes during the outage need a surviving replica)")
		os.Exit(2)
	case *crashReplica >= 0 && *killReplica >= 0:
		fmt.Fprintln(os.Stderr, "brb-load: -crash-replica and -kill-replica are mutually exclusive (hard kill vs graceful stop)")
		os.Exit(2)
	case rebalancing && (*killReplica >= 0 || *crashReplica >= 0):
		fmt.Fprintln(os.Stderr, "brb-load: -add-shard-after/-remove-shard-after exclude -kill-replica/-crash-replica")
		os.Exit(2)
	}

	// -spawn runs the whole cluster in this process, each server with a
	// FaultInjector attached — the self-contained way to demonstrate
	// tail-cutting and recovery. With -crash-replica or -data-dir, every
	// spawned server is durable: its store is backed by a per-server WAL
	// + snapshot directory it can be recovered from.
	fl := &fleet{}
	if *spawn && (*crashReplica >= 0 || *dataDir != "") {
		fl.fsync, err = kv.ParseFsyncPolicy(*fsyncFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		fl.dir = *dataDir
		if fl.dir == "" {
			fl.dir, err = os.MkdirTemp("", "brb-load-wal-")
			if err != nil {
				log.Fatalf("brb-load: temp data dir: %v", err)
			}
			defer os.RemoveAll(fl.dir)
		}
		log.Printf("durable spawn: WAL + snapshots under %s (fsync=%s)", fl.dir, fl.fsync)
	}
	if *spawn {
		addrs = make([]string, n)
		for i := range addrs {
			addrs[i], _, err = fl.spawn(i, i / *replication, "127.0.0.1:0", nil)
			if err != nil {
				log.Fatalf("brb-load: spawn server %d: %v", i, err)
			}
		}
		log.Printf("spawned %d in-process servers (%d shards × %d replicas)", n, *shards, *replication)
	}

	shardTopo, err := cluster.NewShardTopology(cluster.ShardConfig{Shards: *shards, Replicas: *replication})
	if err == nil && shardTopo.NumServers() != len(addrs) {
		err = fmt.Errorf("%d addresses for %d shards × %d replicas", len(addrs), *shards, *replication)
	}
	if err == nil {
		shardTopo, err = shardTopo.WithAddrs(addrs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-load:", err)
		os.Exit(2)
	}
	if rebalancing {
		// Epoch-versioned routing needs every server to hold the
		// topology, so ownership checks and NotOwner/stray rejections are
		// live before the epoch changes under the clients.
		if err := netstore.PushTopology(bg, shardTopo, netstore.RebalanceOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
	}
	// dialStore connects one workload client.
	dialStore := func(client int) (*netstore.Cluster, error) {
		c, err := netstore.DialCluster(nil, netstore.ClusterOptions{
			Topology: shardTopo, Client: client, Clients: totalConns, Assigner: assigner,
			ProbeInterval: *probeInterval, CacheSize: *cacheSize,
			ConnsPerReplica: *connsPerReplica,
		})
		if err != nil {
			return nil, err
		}
		if *controller != "" {
			if err := c.AttachController(*controller, 0); err != nil {
				c.Close()
				return nil, err
			}
		}
		return c, nil
	}
	readOpts := netstore.ReadOptions{Timeout: *deadline, Hedge: hedgePol}

	// Outage and rebalance runs end in a replica check, labelled after
	// the run's acceptance claim.
	checkLabel := ""
	switch {
	case *killReplica >= 0:
		checkLabel = "convergence"
	case *crashReplica >= 0:
		checkLabel = "crash-recovery"
	case rebalancing:
		checkLabel = "rebalance"
	}
	// Acked-write ground truth for the replica check: every owner
	// replica must afterwards hold the newest write some client saw
	// acknowledged on each key (or a newer one). Each client harvests
	// its acked writes here before closing.
	var ackedMu sync.Mutex
	acked := map[string]netstore.AckedWrite{}
	harvestAcked := func(cc *netstore.Cluster) {
		if checkLabel == "" {
			return
		}
		ackedMu.Lock()
		defer ackedMu.Unlock()
		for i := 0; i < *keys; i++ {
			k := fmt.Sprintf("key:%d", i)
			if w, ok := cc.LastWrite(k); ok && w.Version > acked[k].Version {
				acked[k] = w
			}
		}
	}

	// Load phase: heavy-tailed value sizes.
	if !*skipLoad {
		loader, err := dialStore(0)
		if err != nil {
			log.Fatalf("brb-load: %v", err)
		}
		sizes := randx.BoundedPareto{Alpha: 1.0, L: 256, H: 64 << 10}
		r := randx.New(*seed)
		start := time.Now()
		for i := 0; i < *keys; i++ {
			if err := loader.Set(bg, fmt.Sprintf("key:%d", i), make([]byte, int(sizes.Sample(r))), netstore.WriteOptions{}); err != nil {
				log.Fatalf("brb-load: load: %v", err)
			}
		}
		harvestAcked(loader)
		loader.Close()
		log.Printf("loaded %d keys in %s", *keys, time.Since(start).Round(time.Millisecond))
	}

	// The slow replica is armed only now, so the load phase ran at full
	// speed and the measurement phase sees the straggler from its first
	// task (the C3 scorer and adaptive hedge trigger learn it live).
	if *slowReplica >= 0 {
		fl.fault(*slowReplica).SetDelay(*slowLatency)
		log.Printf("fault: server %d (shard %d replica %d) slowed by %v per request",
			*slowReplica, *slowReplica / *replication, *slowReplica%*replication, *slowLatency)
	}

	// Measurement phase: the loadgen engine executes the op sequence —
	// generated or replayed, it cannot tell the difference.
	var memBefore runtime.MemStats
	if *allocStats {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	// Replica outage: take the victim down, then restart it on its old
	// address so the clients' revival probes and hinted handoff find it
	// where they left it. -kill-replica stops it gracefully and restarts
	// it over its surviving store (from its data directory on a durable
	// spawn); -crash-replica hard-kills it (Kill aborts its WAL without
	// flushing — the in-process equivalent of SIGKILL) and restarts it
	// from its WAL + snapshot directory.
	downServer, downAfter, downFor, crash := *killReplica, *killAfter, *restartAfter, false
	downLabel := "fault"
	if *crashReplica >= 0 {
		downServer, downAfter, downFor, crash = *crashReplica, *crashAfter, *recoverAfter, true
		downLabel = "crash"
	}
	if downServer >= 0 {
		go func() {
			time.Sleep(downAfter)
			label, how, note := downLabel, "stopped", ""
			if crash {
				how, note = "hard-killed", " — no flush, no final snapshot"
			}
			store := fl.stop(downServer, crash)
			log.Printf("%s: %s server %d (shard %d replica %d)%s", label, how,
				downServer, downServer / *replication, downServer%*replication, note)
			time.Sleep(downFor)
			addr, stats, err := fl.spawn(downServer, downServer / *replication, addrs[downServer], store)
			if err != nil {
				log.Fatalf("brb-load: restart server %d: %v", downServer, err)
			}
			if fl.dir == "" {
				log.Printf("%s: server %d restarted on %s over its surviving store", label, downServer, addr)
				return
			}
			log.Printf("%s: server %d restarted on %s (snapshot %d: %d entries, %d WAL records, %d corrupt)",
				label, downServer, addr, stats.SnapshotIndex, stats.SnapshotEntries, stats.WALRecords, stats.CorruptRecords)
		}()
	}
	// Live rebalance: after the delay, grow (spawning the new shard's
	// replica servers in-process) or drain a shard while the measurement
	// clients keep issuing — they cross the epoch boundary via
	// NotOwner/stray-triggered refreshes, no restart.
	finalTopoCh := make(chan *cluster.ShardTopology, 1)
	if rebalancing {
		go func() {
			var delay time.Duration
			if *addShardAfter > 0 {
				delay = *addShardAfter
			} else {
				delay = *removeShardAfter
			}
			time.Sleep(delay)
			ropts := netstore.RebalanceOptions{Logf: log.Printf}
			if *addShardAfter > 0 {
				newID := shardTopo.NextShardID()
				newAddrs := make([]string, *replication)
				for r := range newAddrs {
					var err error
					newAddrs[r], _, err = fl.spawn(shardTopo.NumServers()+r, newID, "127.0.0.1:0", nil)
					if err != nil {
						log.Fatalf("brb-load: spawn new shard server: %v", err)
					}
				}
				log.Printf("rebalance: adding shard %d on %v", newID, newAddrs)
				nt, err := netstore.AddShard(bg, shardTopo, newAddrs, ropts)
				if err != nil {
					log.Fatalf("brb-load: add shard: %v", err)
				}
				finalTopoCh <- nt
				return
			}
			ids := shardTopo.ShardIDs()
			victim := ids[len(ids)-1]
			log.Printf("rebalance: draining shard %d", victim)
			nt, err := netstore.RemoveShard(bg, shardTopo, victim, ropts)
			if err != nil {
				log.Fatalf("brb-load: remove shard: %v", err)
			}
			finalTopoCh <- nt
		}()
	}
	// Under fault injection each worker outlives the outage: it holds
	// the hinted writes the dead replica missed, so it must stay up
	// until its prober revives the replica and replays them, then
	// sweep-read the keyspace once so read-repair catches anything the
	// hint buffer dropped. The engine runs this after a worker's last
	// op, before closing its store.
	var lastOpMu sync.Mutex
	var lastOp time.Duration // when the load's last op finished, from start
	postWorker := func(client string, worker int, c netstore.Store) {
		cc := c.(*netstore.Cluster)
		func() {
			if downServer < 0 {
				return
			}
			lastOpMu.Lock()
			lastOp = max(lastOp, time.Since(start))
			lastOpMu.Unlock()
			outage := downAfter + downFor
			shard, rep := downServer / *replication, downServer%*replication
			if d := time.Until(start.Add(outage)); d > 0 {
				time.Sleep(d)
			}
			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) && cc.ReplicaDown(shard, rep) {
				time.Sleep(50 * time.Millisecond)
			}
			if cc.ReplicaDown(shard, rep) {
				log.Printf("brb-load: %s/%d: replica %d not revived within 15s", client, worker, downServer)
				return
			}
			for lo := 0; lo < *keys; lo += 256 {
				hi := lo + 256
				if hi > *keys {
					hi = *keys
				}
				ks := make([]string, 0, hi-lo)
				for i := lo; i < hi; i++ {
					ks = append(ks, fmt.Sprintf("key:%d", i))
				}
				if _, err := cc.Multiget(bg, ks, netstore.ReadOptions{}); err != nil {
					log.Printf("brb-load: %s/%d sweep: %v", client, worker, err)
					return
				}
			}
			// Read-repair pushes are asynchronous; give them a beat.
			time.Sleep(500 * time.Millisecond)
		}()
		harvestAcked(cc)
	}
	rep, err := loadgen.Run(bg, header.Classes, wops, loadgen.RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			c, err := dialStore(idx)
			if err != nil {
				return nil, err
			}
			return c, nil
		},
		ClassBias:   header.ClassBias,
		Timeout:     *deadline,
		ReadOptions: readOpts,
		OnError: func(client string, worker int, err error) {
			log.Printf("brb-load: %s/%d: %v", client, worker, err)
		},
		PostWorker: postWorker,
	})
	if err != nil {
		log.Fatalf("brb-load: run: %v", err)
	}
	elapsed := rep.Wall
	if downServer >= 0 {
		// An outage the load outlived is what exercised hinted handoff
		// and revival under load; say which one this run had.
		verdict := "fell within the load"
		if lastOp < downAfter+downFor {
			verdict = "outlasted the load — no op ran after the restart"
		}
		log.Printf("%s: outage %s–%s %s (last op at %s)",
			downLabel, downAfter, downAfter+downFor, verdict, lastOp.Round(time.Millisecond))
	}
	if checkLabel != "" {
		topo := shardTopo
		if rebalancing {
			select {
			case topo = <-finalTopoCh:
			case <-time.After(30 * time.Second):
				fmt.Println("rebalance: FAILED — migration did not finish within 30s of the run")
				os.Exit(1)
			}
		}
		checkReplicas(checkLabel, topo, *keys, acked)
	}
	// The classic whole-run lines aggregate across classes; the
	// per-class lines follow with the SLO split.
	hist := metrics.NewLatencyHistogram()
	var expiredTasks, cancelledTasks uint64
	for i := range rep.Classes {
		hist.Merge(rep.Classes[i].Hist)
		expiredTasks += rep.Classes[i].Expired
		cancelledTasks += rep.Classes[i].Cancelled
	}
	s := hist.Summarize()
	fmt.Printf("assigner=%s tasks=%d wall=%s throughput=%.0f tasks/s\n",
		assigner.Name(), s.Count, elapsed.Round(time.Millisecond),
		float64(s.Count)/elapsed.Seconds())
	fmt.Printf("task latency: %s\n", s)
	fmt.Print(rep.String())
	// Deadline accounting: per-task outcomes from this run, plus the
	// client library's process-wide counters (which also cover internal
	// sub-batches and writes).
	fmt.Printf("deadlines: expired_tasks=%d cancelled_tasks=%d  netstore_expired_total=%d netstore_cancelled_total=%d\n",
		expiredTasks, cancelledTasks,
		metrics.CounterValue("netstore_expired_total"),
		metrics.CounterValue("netstore_cancelled_total"))
	if hedgePol.Mode != netstore.HedgeOff {
		h := metrics.CountersWithPrefix("netstore_hedge_")
		fmt.Printf("hedges: fired=%d won=%d wasted=%d\n",
			h["netstore_hedge_fired_total"], h["netstore_hedge_won_total"], h["netstore_hedge_wasted_total"])
	}
	if *spawn {
		// The steal counter is process-wide, so it only describes this
		// run's servers when they were spawned in-process.
		fmt.Printf("sched: steals=%d served_keys=%d\n",
			metrics.CounterValue("netstore_sched_steals_total"), fl.served())
	}
	if *cacheSize > 0 {
		cc := metrics.CountersWithPrefix("netstore_cache_")
		fmt.Printf("cache: hits=%d misses=%d fills=%d invalidations=%d evictions=%d\n",
			cc["netstore_cache_hits_total"], cc["netstore_cache_misses_total"], cc["netstore_cache_fills_total"],
			cc["netstore_cache_invalidations_total"], cc["netstore_cache_evictions_total"])
	}
	if *allocStats && s.Count > 0 {
		// Whole-process deltas over the measurement phase only (dialing
		// and the initial load happen before memBefore; teardown after
		// memAfter): coarser than testing.AllocsPerOp — the workload
		// generator and histogram are included — but directly
		// comparable across wire-path changes.
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		ops := float64(s.Count)
		fmt.Printf("allocstats: %.1f allocs/op  %.0f bytes/op  (%d mallocs, %s total over %d tasks)\n",
			float64(memAfter.Mallocs-memBefore.Mallocs)/ops,
			float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/ops,
			memAfter.Mallocs-memBefore.Mallocs,
			fmtBytes(memAfter.TotalAlloc-memBefore.TotalAlloc),
			s.Count)
	}
}

// fleet holds the run's in-process servers by dense server index, each
// with a FaultInjector that outlives restarts.
type fleet struct {
	dir   string // durable: WAL + snapshot root, one server-N directory per server ("" = in-memory)
	fsync kv.FsyncPolicy

	mu      sync.Mutex
	servers []*netstore.Server
	faults  []*netstore.FaultInjector
}

// fault returns server i's injector, creating it on first use.
func (f *fleet) fault(i int) *netstore.FaultInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.faults) <= i {
		f.faults = append(f.faults, netstore.NewFaultInjector())
		f.servers = append(f.servers, nil)
	}
	return f.faults[i]
}

// spawn starts server i of shard listening on addr ("127.0.0.1:0" for a
// fresh port) and returns the address it bound. A durable fleet
// recovers the server from its directory; otherwise it serves store (a
// fresh one when nil). A restart reuses its predecessor's address, so
// the bind is retried while the old listener's port frees up.
func (f *fleet) spawn(i, shard int, addr string, store *kv.Store) (string, kv.ReplayStats, error) {
	opts := netstore.ServerOptions{Workers: 4, Shard: shard, CheckShard: true, Fault: f.fault(i)}
	var srv *netstore.Server
	var stats kv.ReplayStats
	if f.dir != "" {
		opts.DataDir, opts.Fsync = filepath.Join(f.dir, fmt.Sprintf("server-%d", i)), f.fsync
		var err error
		if srv, stats, err = netstore.NewDurableServer(kv.New(0), opts); err != nil {
			return "", stats, err
		}
	} else {
		if store == nil {
			store = kv.New(0)
		}
		srv = netstore.NewServer(store, opts)
	}
	bindBy := time.Now().Add(10 * time.Second)
	ln, err := net.Listen("tcp", addr)
	for err != nil && time.Now().Before(bindBy) {
		time.Sleep(5 * time.Millisecond)
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		srv.Close()
		return "", stats, err
	}
	go func() { _ = srv.Serve(ln) }()
	f.mu.Lock()
	f.servers[i] = srv
	f.mu.Unlock()
	return ln.Addr().String(), stats, nil
}

// stop takes server i down — hard (Kill: no WAL flush, no final
// snapshot) or gracefully (Close) — and returns its store for an
// in-memory restart.
func (f *fleet) stop(i int, hard bool) *kv.Store {
	f.mu.Lock()
	srv := f.servers[i]
	f.mu.Unlock()
	if hard {
		srv.Kill()
	} else {
		srv.Close()
	}
	return srv.Store()
}

// served sums the keys served by the fleet's current servers.
func (f *fleet) served() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n uint64
	for _, srv := range f.servers {
		if srv != nil {
			n += srv.Served()
		}
	}
	return n
}

// checkReplicas runs netstore.CheckReplicas over the run's keyspace
// under topo and prints the run's acceptance line under label; it exits
// nonzero on a violation so CI can assert on it.
func checkReplicas(label string, topo *cluster.ShardTopology, keys int, acked map[string]netstore.AckedWrite) {
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("key:%d", i)
	}
	if err := netstore.CheckReplicas(context.Background(), topo, ks, acked); err != nil {
		fmt.Printf("%s: FAILED — %v\n", label, err)
		os.Exit(1)
	}
	fmt.Printf("%s: OK — epoch %d, every one of %d keys agrees across all %d replicas of its owner shard, none below its acked version (%d acked)\n",
		label, topo.Epoch(), keys, topo.Replicas(), len(acked))
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
