package main

import (
	"context"
	"embed"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/randx"
)

//go:embed specs/*.yaml
var specFS embed.FS

func loadSpec(name string) (*loadgen.Spec, error) {
	data, err := specFS.ReadFile("specs/" + name)
	if err != nil {
		return nil, err
	}
	s, err := loadgen.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", name, err)
	}
	if len(s.Clients) != 1 {
		return nil, fmt.Errorf("spec %s: want exactly one client, got %d", name, len(s.Clients))
	}
	return s, nil
}

// storeWorkload is one traffic mix against in-process servers. The spec
// gives the traffic; the fields give what a loadgen spec cannot say: the
// cluster's shape, the injected fault and the latency limit.
type storeWorkload struct {
	spec string // file under specs/
	// probe, when set, is a write-only spec the traced run adds after
	// its window, for workloads whose window has no writes.
	probe            string
	shards, replicas int
	// capOps is the size of the traced run's closed-loop plan: more than
	// the workload completes in capLength on a 2-CPU machine. 0 means no
	// closed loop.
	capOps int
	// search runs the rate search after the measured window.
	search  bool
	durable bool
	// slowDelay is added to every key served by server 0.
	slowDelay time.Duration
	hedge     bool
	// limit is the latency limit an op must meet to count as goodput,
	// and the p99 limit of the rate search.
	limit time.Duration
}

const (
	// warmup precedes every measured window: connections are up, the
	// client's size cache and the C3 scorers have seen traffic, and the
	// first GC cycles are over before the clock starts.
	warmup = time.Second
	// probeLength is how long the write probe runs.
	probeLength = 3 * time.Second
	// The rate search offers searchSteps steps of searchStep each, from
	// the fixed rate up, each searchGrowth times the last (4.4 times the
	// fixed rate at the top).
	searchStep   = 1500 * time.Millisecond
	searchSteps  = 5
	searchGrowth = 1.45
	// opTimeout bounds every op. It is far above every latency limit, so
	// a slow op counts as an SLO miss, not as an error.
	opTimeout = 5 * time.Second
	// maxInFlight bounds the pacer's outstanding ops.
	maxInFlight = 512
	// The traced run's closed loop runs capCallers callers for at most
	// capLength, and its rate is the median over capParts slices.
	capCallers = 16
	capLength  = 6 * time.Second
	capParts   = 20
	// capSeed offsets the closed-loop plan's seed from the window's.
	capSeed = 0x5bd1e995
	// preloadWorkers is the number of concurrent preload writers.
	preloadWorkers = 16
)

// keyspace is the benchmark's view of the stored keys: names, preload
// sizes, and the highest version any plan so far has assigned each key.
type keyspace struct {
	names []string
	sizes []int
	ver   []uint32
}

func newKeyspace(n int, sz loadgen.SizeSpec) *keyspace {
	ks := &keyspace{names: make([]string, n), sizes: make([]int, n), ver: make([]uint32, n)}
	dist := randx.BoundedPareto{Alpha: sz.Alpha, L: float64(sz.Min), H: float64(sz.Max)}
	// The stored data is the same under every seed; only the traffic is
	// seeded. Sizes follow the spec's distribution at golden-ratio
	// quantiles, so the hottest keys of a Zipf workload span the
	// distribution. Seeded sizes made the hottest key 256 B under one
	// seed and 64 KiB under the next, and its size alone moved read p99
	// by a third from seed to seed.
	u := 0.5
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("key:%d", i)
		ks.sizes[i] = int(paretoQuantile(dist, u))
		u += 0.6180339887498949
		u -= math.Floor(u)
	}
	return ks
}

// paretoQuantile is the inverse CDF of a bounded Pareto at u in [0, 1).
func paretoQuantile(b randx.BoundedPareto, u float64) float64 {
	la, ha := math.Pow(b.L, b.Alpha), math.Pow(b.H, b.Alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/b.Alpha)
}

// storeEnv is one spawned cluster with its client.
type storeEnv struct {
	w       *storeWorkload
	spec    *loadgen.Spec
	servers []*netstore.Server
	relays  []*relay
	cl      *netstore.Cluster
	topo    *cluster.ShardTopology
	dataDir string
	ks      *keyspace
	tr      *tracer // nil when untraced
	// writes logs every write op issued against this env, for the final
	// read-back.
	writes []writeRec
}

// writeRec is one issued write; times are absolute Unix nanoseconds.
type writeRec struct {
	id         int
	ver        uint32
	start, end int64
	acked      bool
}

// setup spawns the servers (durable ones under tmpRoot), fronts each with
// a relay when tr is not nil, dials the cluster through one connection
// per server, and preloads every key with its version-0 value.
func (w *storeWorkload) setup(tr *tracer, tmpRoot string) (env *storeEnv, err error) {
	spec, err := loadSpec(w.spec)
	if err != nil {
		return nil, err
	}
	env = &storeEnv{w: w, spec: spec, tr: tr,
		ks: newKeyspace(spec.Keys, spec.Clients[0].Sizes)}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if !w.durable {
		if err := env.spawn(tr, ""); err != nil {
			return nil, err
		}
		return env, env.preload()
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if env.dataDir, err = os.MkdirTemp(tmpRoot, "wal-"); err != nil {
		return nil, err
	}
	// Durable servers are preloaded without fsync and then reopened with
	// FsyncAlways, so the keys reach the measured servers through WAL
	// replay. Thousands of serial preload fsyncs would put the shared
	// disk's latency, not the program's, on set-up's clock. The first
	// servers are killed, not closed: Close writes and fsyncs a final
	// snapshot, and every acknowledged FsyncNever append is already in
	// the WAL file.
	if err := env.spawn(nil, kv.FsyncNever); err != nil {
		return nil, err
	}
	if err := env.preload(); err != nil {
		return nil, err
	}
	env.stop(true)
	if err := env.spawn(tr, kv.FsyncAlways); err != nil {
		return nil, err
	}
	return env, nil
}

// spawn starts the env's servers, durable ones with the given fsync
// policy over env.dataDir, and dials the cluster.
func (env *storeEnv) spawn(tr *tracer, fsync kv.FsyncPolicy) error {
	w := env.w
	n := w.shards * w.replicas
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		opts := netstore.ServerOptions{Shard: i / w.replicas, CheckShard: true}
		if i == 0 && w.slowDelay > 0 {
			opts.Fault = netstore.NewFaultInjector()
			opts.Fault.SetDelay(w.slowDelay)
		}
		var srv *netstore.Server
		if w.durable {
			opts.DataDir = fmt.Sprintf("%s/server-%d", env.dataDir, i)
			opts.Fsync = fsync
			var stats kv.ReplayStats
			var err error
			if srv, stats, err = netstore.NewDurableServer(kv.New(0), opts); err != nil {
				return err
			}
			if fsync == kv.FsyncAlways && stats.CorruptRecords > 0 {
				srv.Close()
				return fmt.Errorf("server %d: WAL replay hit %d corrupt records", i, stats.CorruptRecords)
			}
		} else {
			srv = netstore.NewServer(kv.New(0), opts)
		}
		env.servers = append(env.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve(ln) }()
		addrs[i] = ln.Addr().String()
		if tr != nil {
			r, err := startRelay(addrs[i], i, tr)
			if err != nil {
				return err
			}
			env.relays = append(env.relays, r)
			addrs[i] = r.addr()
		}
	}
	var err error
	env.topo, err = cluster.NewShardTopology(cluster.ShardConfig{Shards: w.shards, Replicas: w.replicas})
	if err != nil {
		return err
	}
	env.cl, err = netstore.DialCluster(addrs, netstore.ClusterOptions{
		Topology:        env.topo,
		ConnsPerReplica: 1,
		ServerWorkers:   4,
	})
	return err
}

func (env *storeEnv) preload() error {
	var wg sync.WaitGroup
	errs := make(chan error, preloadWorkers)
	for g := 0; g < preloadWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := g; id < len(env.ks.names); id += preloadWorkers {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				err := env.cl.Set(ctx, env.ks.names[id], makeValue(id, 0, env.ks.sizes[id]), netstore.WriteOptions{})
				cancel()
				if err != nil {
					errs <- fmt.Errorf("preload %s: %w", env.ks.names[id], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// stop closes the client, relays and servers, killing the servers when
// kill is set; the data directory stays.
func (env *storeEnv) stop(kill bool) {
	if env.cl != nil {
		env.cl.Close()
	}
	for _, r := range env.relays {
		r.close()
	}
	for _, s := range env.servers {
		if kill {
			s.Kill()
		} else {
			s.Close()
		}
	}
	env.cl, env.relays, env.servers = nil, nil, nil
}

// close tears the env down and removes its data; closing twice is
// harmless. Servers are killed: their data is deleted next, so a final
// snapshot would only spend time.
func (env *storeEnv) close() {
	env.stop(true)
	if env.dataDir != "" {
		_ = os.RemoveAll(env.dataDir)
	}
	env.dataDir = ""
}

// plan is a generated op schedule.
type plan struct {
	ops []benchOp
	due []int64
	// windowFrom is the first op of the measured window; the ops before
	// it are warm-up.
	windowFrom int
	window     time.Duration
	gen        time.Duration // time spent in loadgen.Generate
}

// makePlan generates warm+dur of the spec's traffic at rate ops/s and
// turns it into benchOps: keys formatted, and for each write a new
// version of its key and the value that encodes it.
func (env *storeEnv) makePlan(specName string, seed uint64, rate float64, warm, dur time.Duration) (*plan, error) {
	base := env.spec
	if specName != env.w.spec {
		var err error
		if base, err = loadSpec(specName); err != nil {
			return nil, err
		}
	}
	s := *base
	s.Clients = append([]loadgen.ClientSpec(nil), base.Clients...)
	s.Seed = seed
	s.Keys = len(env.ks.names)
	if rate <= 0 {
		rate = s.Clients[0].Arrival.Rate
	}
	s.Clients[0].Arrival.Rate = rate
	s.Clients[0].Ops = int(rate * (warm + dur).Seconds())
	t0 := time.Now()
	ops, err := loadgen.Generate(&s)
	if err != nil {
		return nil, err
	}
	p := &plan{gen: time.Since(t0), ops: make([]benchOp, len(ops)), due: make([]int64, len(ops)), windowFrom: len(ops)}
	for i := range ops {
		op := &ops[i]
		p.due[i] = op.TS
		if op.TS >= int64(warm) && p.windowFrom == len(ops) {
			p.windowFrom = i
		}
		b := benchOp{ids: op.Keys, keys: make([]string, len(op.Keys))}
		for j, id := range op.Keys {
			b.keys[j] = env.ks.names[id]
		}
		switch op.Kind {
		case loadgen.OpGet:
		case loadgen.OpSet:
			id := op.Keys[0]
			env.ks.ver[id]++
			b.write = true
			b.value = makeValue(id, env.ks.ver[id], op.Size)
		default:
			return nil, fmt.Errorf("spec %s: op kind %q is not benchmarked", specName, op.Kind)
		}
		p.ops[i] = b
	}
	if len(ops) > 0 {
		p.window = time.Duration(p.due[len(ops)-1]) - warm
	}
	return p, nil
}

// runResult is one executed plan.
type runResult struct {
	p     *plan
	recs  []opRec
	proc  procDelta
	spans []callSpan // traced runs only
}

// run executes a plan open-loop; with spans it records each op's store
// call.
func (env *storeEnv) run(p *plan, spans bool) *runResult {
	x := env.exec(p, spans)
	settle()
	var before procSample
	start := time.Now()
	recs := pace(p.due, maxInFlight, p.windowFrom, func() { before = sampleProc() }, x.do)
	after := sampleProc()
	if p.windowFrom == len(p.ops) {
		before = after
	}
	return env.record(p, x, start, recs, after.since(before))
}

// capacity executes a plan closed-loop: capCallers callers each issue the
// plan's next op as soon as their last one returns, for at most
// capLength. It returns the result and the completion rates of capParts
// equal slices of the issuing time.
func (env *storeEnv) capacity(p *plan) (*runResult, []float64) {
	x := env.exec(p, false)
	settle()
	before := sampleProc()
	start := time.Now()
	recs := drive(len(p.ops), capCallers, capLength, x.do)
	res := env.record(p, x, start, recs, sampleProc().since(before))
	return res, sliceRates(recs, capParts)
}

func (env *storeEnv) exec(p *plan, spans bool) *storeExec {
	x := &storeExec{store: env.cl, ops: p.ops, timeout: opTimeout, maxVer: env.ks.ver}
	if env.w.hedge {
		x.ropts.Hedge = netstore.HedgePolicy{Mode: netstore.HedgeAdaptive}
	}
	if spans && env.tr != nil {
		x.spans = make([]callSpan, len(p.ops))
		x.epoch = env.tr.epoch
	}
	return x
}

// record logs the writes among a run's issued ops (recs may be shorter
// than the plan) for the final read-back.
func (env *storeEnv) record(p *plan, x *storeExec, start time.Time, recs []opRec, proc procDelta) *runResult {
	for i := range recs {
		if op := &p.ops[i]; op.write {
			env.writes = append(env.writes, writeRec{
				id: op.ids[0], ver: valueVersion(op.value),
				start: start.UnixNano() + recs[i].start, end: start.UnixNano() + recs[i].end,
				acked: recs[i].out == okOutcome,
			})
		}
	}
	return &runResult{p: p, recs: recs, proc: proc, spans: x.spans}
}

// winStats summarizes the measured window of a run.
type winStats struct {
	// readSeq, writeSeq and lagSeq are in due order; read, write and lag
	// hold the same samples sorted.
	readSeq, writeSeq, lagSeq           []int64
	read, write, lag                    dist
	attempted, errs, expired, cancelled int
	wrong, inLimit, keysRead, reads     int
	seconds                             float64
	proc                                procDelta
}

func (r *runResult) stats(limit time.Duration) *winStats {
	s := &winStats{seconds: r.p.window.Seconds(), proc: r.proc}
	for i := r.p.windowFrom; i < len(r.recs); i++ {
		rec, op := r.recs[i], &r.p.ops[i]
		s.attempted++
		s.lagSeq = append(s.lagSeq, rec.lag())
		switch rec.out {
		case okOutcome:
			if rec.latency() <= int64(limit) {
				s.inLimit++
			}
			if op.write {
				s.writeSeq = append(s.writeSeq, rec.latency())
			} else {
				s.readSeq = append(s.readSeq, rec.latency())
			}
		case errOutcome:
			s.errs++
		case expiredOutcome:
			s.expired++
		case cancelledOutcome:
			s.cancelled++
		case wrongOutcome:
			s.wrong++
		}
		if !op.write {
			s.reads++
			s.keysRead += len(op.keys)
		}
	}
	s.read, s.write, s.lag = newDist(s.readSeq), newDist(s.writeSeq), newDist(s.lagSeq)
	return s
}

func (s *winStats) failed() int { return s.errs + s.expired + s.cancelled + s.wrong }

// searchRate estimates the highest offered rate at which the workload's
// read p99 stays under its limit. It offers the traffic at a ladder of
// rates from the fixed rate up and takes each step's pressure: read p99
// over the limit, or +Inf when an op failed. A noisy step must not decide the result, so pressure is
// made non-decreasing from the top down (each step takes the least
// pressure at or above its rate), and the result interpolates, in log
// pressure, the rate where pressure crosses 1. Latency runs from due
// times, so a pacer that falls behind raises p99 too.
func (env *storeEnv) searchRate(seed uint64, base float64, tally func(*runResult)) (float64, error) {
	rates := make([]float64, searchSteps)
	press := make([]float64, searchSteps)
	for i := range rates {
		rates[i] = base * math.Pow(searchGrowth, float64(i))
		p, err := env.makePlan(env.w.spec, seed+uint64(i+1)*0x9e37, rates[i], 0, searchStep)
		if err != nil {
			return 0, err
		}
		res := env.run(p, false)
		tally(res)
		s := res.stats(env.w.limit)
		press[i] = math.Inf(1)
		if s.failed() == 0 {
			v, _ := windowed(s.readSeq, p99)
			press[i] = float64(v) / float64(env.w.limit)
		}
	}
	for i := len(press) - 2; i >= 0; i-- {
		press[i] = math.Min(press[i], press[i+1])
	}
	switch {
	case press[0] > 1:
		return rates[0] * math.Min(1, 1/press[0]), nil
	case press[len(press)-1] <= 1:
		return rates[len(rates)-1], nil
	}
	for i := 1; i < len(press); i++ {
		if press[i] > 1 {
			lo, hi, plo, phi := rates[i-1], rates[i], press[i-1], press[i]
			if math.IsInf(phi, 1) {
				return lo, nil
			}
			return lo + (hi-lo)*(-math.Log(plo))/(math.Log(phi)-math.Log(plo)), nil
		}
	}
	return rates[len(rates)-1], nil
}

// verifyWrites reads back every written key from every replica's store,
// and once more through the cluster client. A key's value must decode,
// and must be a write no acked write started after: an acked write that
// began after another write finished carries a later version and must
// have replaced it.
func (env *storeEnv) verifyWrites() (checked int, problems []string) {
	type keyState struct {
		ends          map[uint32]int64 // version -> end of its write
		lastAckedFrom int64            // latest start of an acked write
	}
	byKey := map[int]*keyState{}
	for _, w := range env.writes {
		st := byKey[w.id]
		if st == nil {
			// Version 0 is the preload, finished before any write began.
			st = &keyState{ends: map[uint32]int64{0: 0}}
			byKey[w.id] = st
		}
		st.ends[w.ver] = w.end
		if w.acked && w.start > st.lastAckedFrom {
			st.lastAckedFrom = w.start
		}
	}
	valid := func(id int, v []byte, found bool) bool {
		if !found || !checkValue(v, id, env.ks.ver[id]) {
			return false
		}
		end, ok := byKey[id].ends[valueVersion(v)]
		return ok && end >= byKey[id].lastAckedFrom
	}
	var ids []int
	for id := range byKey {
		ids = append(ids, id)
		for r := 0; r < env.w.replicas; r++ {
			srv := env.servers[env.topo.ShardOfKey(env.ks.names[id])*env.w.replicas+r]
			v, _, found := srv.Store().GetVersion(env.ks.names[id])
			checked++
			if !valid(id, v, found) {
				problems = append(problems, fmt.Sprintf("replica %d of %s holds a value no acked write allows", r, env.ks.names[id]))
			}
		}
	}
	for i := 0; i < len(ids); i += 64 {
		batch := ids[i:min(i+64, len(ids))]
		keys := make([]string, len(batch))
		for j, id := range batch {
			keys[j] = env.ks.names[id]
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		res, err := env.cl.Multiget(ctx, keys, netstore.ReadOptions{})
		cancel()
		checked++
		if err != nil {
			problems = append(problems, fmt.Sprintf("read-back multiget: %v", err))
			continue
		}
		for j, id := range batch {
			if !valid(id, res.Values[j], res.Found[j]) {
				problems = append(problems, fmt.Sprintf("read-back of %s through the client returned a value no acked write allows", keys[j]))
			}
		}
	}
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("... and %d more", len(problems)-5))
	}
	return checked, problems
}

// served sums Served and SchedSteals over the env's servers.
func (env *storeEnv) served() (keys, steals uint64) {
	for _, s := range env.servers {
		keys += s.Served()
		steals += s.SchedSteals()
	}
	return keys, steals
}
