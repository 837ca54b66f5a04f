package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/brb-repro/brb/internal/metrics"
)

// The store workloads. Each runs exactly two servers — the CPU count of
// the machine the rates were sized on — each reached over one
// connection. Why each exists is in README.md.
var (
	readFanout = &storeWorkload{
		spec: "read-fanout.yaml", probe: "write-probe.yaml",
		shards: 2, replicas: 1, limit: 25 * time.Millisecond,
		capOps: 150000, search: true,
	}
	slowReplica = &storeWorkload{
		spec: "slow-replica.yaml", probe: "write-probe.yaml",
		shards: 1, replicas: 2, slowDelay: 500 * time.Microsecond, hedge: true,
		limit: 10 * time.Millisecond, capOps: 200000,
	}
	// write-durable's limit is wide because fsync latency on a shared
	// disk swings from 0.1 ms to several ms between runs; a tighter limit
	// made goodput measure the neighbours' disk traffic.
	writeDurable = &storeWorkload{
		spec: "write-durable.yaml", shards: 1, replicas: 2, durable: true,
		limit: 100 * time.Millisecond, capOps: 60000,
	}
	// simStore is the store phase of sim-fig2's traced run: one in-memory
	// server.
	simStore = &storeWorkload{
		spec: "sim-store.yaml", shards: 1, replicas: 1, limit: 10 * time.Millisecond,
	}
	// simStoreLength is how long sim-fig2's store phase runs.
	simStoreLength = 3 * time.Second
)

// setupTimes holds the process CPU time and the wall time of each of a
// run's set-ups, in seconds.
type setupTimes struct{ cpu, wall []float64 }

// time runs one set-up and records its times.
func (t *setupTimes) time(setup func() error) error {
	settle()
	before, t0 := sampleProc(), time.Now()
	err := setup()
	t.cpu = append(t.cpu, sampleProc().since(before).cpu.Seconds())
	t.wall = append(t.wall, time.Since(t0).Seconds())
	return err
}

// report sets setup_s to the median CPU time. CPU time, not wall time:
// the hypervisor's stolen time is not charged to the process, and on a
// shared VM it moved the median wall time by a third between sets of
// runs.
func (t *setupTimes) report(rep *report, what string) {
	rep.set("setup_s", "s", median(t.cpu), fmt.Sprintf("process CPU time, median of %d %s", len(t.cpu), what))
	rep.set("setup_wall_s", "s", median(t.wall), "")
}

// setupMeasured sets a workload up setupReps times, timing each set-up,
// and returns the last env with its main plan.
func setupMeasured(w *storeWorkload, o options) (*storeEnv, *plan, *setupTimes, error) {
	t := &setupTimes{}
	for i := 1; ; i++ {
		var env *storeEnv
		var p *plan
		err := t.time(func() error {
			var err error
			if env, err = w.setup(nil, o.tmp); err != nil {
				return err
			}
			if p, err = env.makePlan(w.spec, o.seed, 0, warmup, o.window); err != nil {
				env.close()
			}
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if i == setupReps {
			return env, p, t, nil
		}
		env.close()
	}
}

// setLatency reports percentiles of a window's latencies (in due order)
// as windowed medians, with the sample count and split in the note.
func setLatency(rep *report, prefix string, xs []int64, ps ...pct) {
	for _, p := range ps {
		v, k := windowed(xs, p)
		note := fmt.Sprintf("n=%d, median of %d parts", len(xs), k)
		if !p.resolves(len(xs)) {
			note += ", unresolved: highest resolved is " + highestResolved(len(xs)).name
		}
		rep.set(prefix+p.name+"_ms", "ms", ms(v), note)
	}
}

// setWindow reports a store window's end-to-end metrics.
func setWindow(rep *report, s *winStats, limit time.Duration) {
	setLatency(rep, "read_", s.readSeq, p50, p90, p99, p999)
	rep.set("goodput_ops_s", "ops/s", float64(s.inLimit)/s.seconds,
		fmt.Sprintf("limit %v, %d of %d ops", limit, s.inLimit, s.attempted))
	rep.set("slo_miss_frac", "frac", float64(s.attempted-s.inLimit)/float64(s.attempted), "")
	rep.set("error_frac", "frac", float64(s.failed())/float64(s.attempted),
		fmt.Sprintf("errors=%d expired=%d cancelled=%d wrong=%d", s.errs, s.expired, s.cancelled, s.wrong))
	rep.set("cpu_us_per_op", "us", us(int64(s.proc.cpu))/float64(s.attempted), "")
	rep.set("mean_fanout", "count", float64(s.keysRead)/float64(max(s.reads, 1)), "")
	rep.set("loadgen.issue_lag_p99_us", "us", us(s.lag.at(p99)), "")
}

func storeRunner(w *storeWorkload) func(options, *report) error {
	return func(o options, rep *report) error {
		if o.traced {
			return traceStore(w, o, rep)
		}
		env, p, setup, err := setupMeasured(w, o)
		if err != nil {
			return err
		}
		defer env.close()
		setup.report(rep, "set-ups")
		res := env.run(p, false)
		// Peak RSS is taken after the window, before the rate search
		// overloads the cluster on purpose.
		rep.set("peak_rss_mb", "MB", peakRSSMB(), "set-up and measured window")
		rep.tally(res)
		s := res.stats(w.limit)
		setWindow(rep, s, w.limit)
		if len(s.writeSeq) > 0 {
			setLatency(rep, "write_", s.writeSeq, p50, p99)
		}
		if w.search {
			rate, err := env.searchRate(o.seed, env.spec.Clients[0].Arrival.Rate, rep.tally)
			if err != nil {
				return err
			}
			rep.set("slo_rate_ops_s", "ops/s", rate, fmt.Sprintf("offered rate where read p99 reaches %v", w.limit))
		}
		verify(env, rep)
		return nil
	}
}

// traceStore is the traced run of a store workload: one untraced window
// for the baseline, with the write probe and the closed loop after it,
// then the same window and the write probe with every server behind a
// relay. It reports the per-layer metrics and the tracing overhead.
func traceStore(w *storeWorkload, o options, rep *report) error {
	env, err := w.setup(nil, o.tmp)
	if err != nil {
		return err
	}
	p, err := env.makePlan(w.spec, o.seed, 0, warmup, o.window)
	if err != nil {
		env.close()
		return err
	}
	baseRes := env.run(p, false)
	rep.tally(baseRes)
	base := baseRes.stats(w.limit)
	setProc(rep, base.proc, base.attempted)
	rep.set("loadgen.generate_ms", "ms", ms(int64(p.gen)), "")
	rep.set("loadgen.issue_lag_p99_us", "us", us(base.lag.at(p99)), "")
	writes := base.writeSeq
	if w.probe != "" {
		pp, err := env.makePlan(w.probe, o.seed+1, 0, 0, probeLength)
		if err != nil {
			env.close()
			return err
		}
		pr := env.run(pp, false)
		rep.tally(pr)
		writes = pr.stats(w.limit).writeSeq
	}
	setUnbounded(rep, base, writes)
	if w.capOps > 0 {
		cp, err := env.makePlan(w.spec, o.seed+capSeed, float64(w.capOps), 0, time.Second)
		if err != nil {
			env.close()
			return err
		}
		cres, rates := env.capacity(cp)
		rep.tally(cres)
		rep.set("e2e.capacity_ops_s", "ops/s", median(rates),
			fmt.Sprintf("%d callers in a closed loop, %d ops, median of %d slices", capCallers, len(cres.recs), len(rates)))
		rep.set("e2e.saturated_cpu_us_per_op", "us", us(int64(cres.proc.cpu))/float64(len(cres.recs)),
			"process CPU per op of the closed loop")
	}
	verify(env, rep)
	env.close()

	tr := newTracer()
	tenv, err := w.setup(tr, o.tmp)
	if err != nil {
		return err
	}
	defer tenv.close()
	tp, err := tenv.makePlan(w.spec, o.seed, 0, warmup, o.window)
	if err != nil {
		return err
	}
	hedgeFired0, hedgeWon0 := metrics.CounterValue("netstore_hedge_fired_total"), metrics.CounterValue("netstore_hedge_won_total")
	walAppends0, walFsyncs0, walBytes0 := metrics.CounterValue("kv_wal_appends_total"), metrics.CounterValue("kv_wal_fsyncs_total"), metrics.CounterValue("kv_wal_bytes_total")
	served0, steals0 := tenv.served()
	tr.recording.Store(true)
	runs := []*runResult{tenv.run(tp, true)}
	if w.probe != "" {
		pp, err := tenv.makePlan(w.probe, o.seed+1, 0, 0, probeLength)
		if err != nil {
			return err
		}
		runs = append(runs, tenv.run(pp, true))
	}
	tr.recording.Store(false)
	served1, steals1 := tenv.served()
	hedgeFired := metrics.CounterValue("netstore_hedge_fired_total") - hedgeFired0
	hedgeWon := metrics.CounterValue("netstore_hedge_won_total") - hedgeWon0
	walAppends := metrics.CounterValue("kv_wal_appends_total") - walAppends0
	walFsyncs := metrics.CounterValue("kv_wal_fsyncs_total") - walFsyncs0
	walBytes := metrics.CounterValue("kv_wal_bytes_total") - walBytes0
	for _, r := range runs {
		rep.tally(r)
	}
	traced := runs[0].stats(w.limit)
	verify(tenv, rep)
	if n := tr.badFrames.Load(); n > 0 {
		rep.problem("relay could not decode %d frames", n)
	}

	events, capture := tr.snapshot()
	a := analyze(runs, events, tr)
	ops := a.readOps + a.writeOps
	var keysRead, userBytes int
	for _, r := range runs {
		for i := range r.p.ops {
			if r.recs[i].out != okOutcome {
				continue
			}
			if op := &r.p.ops[i]; op.write {
				userBytes += len(op.value)
			} else {
				keysRead += len(op.keys)
			}
		}
	}
	rep.set("netstore.client.multiget_us_p50", "us", us(a.multiget.at(p50)), fmt.Sprintf("n=%d", len(a.multiget)))
	rep.set("netstore.client.multiget_us_p99", "us", us(a.multiget.at(p99)), "")
	rep.set("netstore.client.self_us_p50", "us", us(a.self.at(p50)), fmt.Sprintf("%d of %d reads joined to their batches", a.joined, a.readOps))
	rep.set("netstore.client.set_us_p50", "us", us(a.setCall.at(p50)), fmt.Sprintf("n=%d", len(a.setCall)))
	rep.set("netstore.client.set_us_p99", "us", us(a.setCall.at(p99)), "")
	rep.set("netstore.client.batches_per_op", "count", ratio(float64(a.batchN), float64(a.readOps)), "hedges included")
	rep.set("netstore.hedge.fired_per_kop", "count", ratio(float64(hedgeFired)*1000, float64(a.readOps)), "")
	rep.set("netstore.hedge.won_frac", "frac", ratio(float64(hedgeWon), float64(hedgeFired)), fmt.Sprintf("%d of %d fired", hedgeWon, hedgeFired))
	rep.set("c3.slow_replica_share", "frac", ratio(float64(a.toServer0), float64(a.batchN)), "read batches sent to server 0")
	rep.set("core.assign_ns_per_op", "ns", assignNsPerOp(tp.ops, tenv.ks, tenv.topo), "")
	rep.set("wire.frames_per_op", "count", ratio(float64(a.frames), float64(ops)), "both directions")
	rep.set("wire.bytes_per_op", "B", ratio(float64(a.bytes), float64(ops)), "both directions")
	rep.set("wire.frames_per_segment", "count", ratio(float64(a.frames), float64(a.rds)), "frames per relay socket read")
	enc, dec := codecNsPerFrame(capture)
	rep.set("wire.encode_ns_per_frame", "ns", enc, fmt.Sprintf("%d captured frames", len(capture)))
	rep.set("wire.decode_ns_per_frame", "ns", dec, "")
	rep.set("netstore.server.residence_us_p50", "us", us(a.residence.at(p50)), fmt.Sprintf("n=%d batches", len(a.residence)))
	rep.set("netstore.server.residence_us_p99", "us", us(a.residence.at(p99)), "")
	rep.set("netstore.server.queue_len_p99", "count", float64(a.qlen.at(p99)), "")
	rep.set("netstore.server.service_us_per_key", "us", ratio(us(a.svcNanos), float64(a.svcKeys)), "")
	rep.set("netstore.server.io_us_p50", "us", us(a.io.at(p50)), "relay span minus queue wait and service")
	rep.set("netstore.server.set_us_p50", "us", us(a.srvSet.at(p50)), fmt.Sprintf("n=%d", len(a.srvSet)))
	rep.set("netstore.server.keys_served_per_key_read", "count", ratio(float64(served1-served0), float64(keysRead)), "")
	rep.set("netstore.sched.steals_per_kkey", "count", ratio(float64(steals1-steals0)*1000, float64(served1-served0)), "")
	rep.set("kv.wal_appends_per_fsync", "count", ratio(float64(walAppends), float64(walFsyncs)), fmt.Sprintf("%d appends", walAppends))
	rep.set("kv.wal_bytes_per_user_byte", "count", ratio(float64(walBytes), float64(userBytes)), "")
	rep.set("kv.get_ns", "ns", kvGetNs(tenv, tp.ops), "")
	genMs, evps, err := simMicro(o.seed)
	if err != nil {
		return err
	}
	rep.set("workload.generate_ms", "ms", genMs, fmt.Sprintf("%d-task trace", simMicroTasks))
	rep.set("engine.events_per_s", "1/s", evps, fmt.Sprintf("%d-task EqualMax-Credits run", simMicroTasks))

	rep.set("trace.overhead_read_p50_frac", "frac", ratio(float64(traced.read.at(p50)), float64(base.read.at(p50)))-1, "traced minus untraced, over untraced")
	rep.set("trace.overhead_read_p99_frac", "frac", ratio(float64(traced.read.at(p99)), float64(base.read.at(p99)))-1, "")
	rep.set("trace.overhead_cpu_frac", "frac",
		ratio(float64(traced.proc.cpu)/float64(traced.attempted), float64(base.proc.cpu)/float64(base.attempted))-1, "")

	path := filepath.Join(benchDir, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", o.workload, o.seed))
	if err := a.writeSpans(path); err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d ops, %d batches, %d writes)\n", path, len(a.ops), len(a.batches), len(a.sets))
	return nil
}

// verify reads back the env's writes and reports what does not match.
func verify(env *storeEnv, rep *report) {
	checked, problems := env.verifyWrites()
	rep.attempted += checked
	for _, p := range problems {
		rep.problem("%s", p)
	}
}

// setProc reports the runtime's share of a window.
func setProc(rep *report, d procDelta, ops int) {
	rep.set("proc.allocs_per_op", "count", ratio(float64(d.allocs), float64(ops)), "")
	rep.set("proc.gc_cpu_frac", "frac", d.gcCPUFrac, "")
	rep.set("proc.sys_cpu_frac", "frac", ratio(float64(d.sys), float64(d.cpu)), "")
	rep.set("proc.ctx_switches_per_op", "count", ratio(float64(d.ctxSwitches), float64(ops)), "")
}

// setUnbounded reports, in the traced run, the end-to-end metrics that
// are too unsteady on a shared machine to carry a bound: CPU per op and
// read and write latency.
func setUnbounded(rep *report, base *winStats, writes []int64) {
	rep.set("e2e.cpu_us_per_op", "us", us(int64(base.proc.cpu))/float64(base.attempted), "")
	reads := base.readSeq
	for _, p := range []pct{p50, p99, p999} {
		v, k := windowed(reads, p)
		rep.set("e2e.read_"+p.name+"_ms", "ms", ms(v), fmt.Sprintf("n=%d, median of %d parts", len(reads), k))
	}
	for _, p := range []pct{p50, p99} {
		v, k := windowed(writes, p)
		rep.set("e2e.write_"+p.name+"_ms", "ms", ms(v), fmt.Sprintf("n=%d, median of %d parts", len(writes), k))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runSimFig2 runs the simulator workload: EqualMax-Credits against
// Oblivious-Credits on the paper's Figure 2 set-up, repeated over the
// same trace for the measured window. Its traced run adds a store phase
// for the store layers.
func runSimFig2(o options, rep *report) error {
	var in *simInput
	var digests []uint64
	var gens []float64
	setup := &setupTimes{}
	for i := 0; i < setupReps; i++ {
		err := setup.time(func() error {
			var err error
			in, err = newSimInput(simConfig(o.seed, simTasks))
			return err
		})
		if err != nil {
			return err
		}
		digests = append(digests, in.digest)
		gens = append(gens, ms(int64(in.gen)))
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			rep.problem("workload.Generate gave different traces for seed %d", o.seed)
		}
	}

	settle()
	before := sampleProc()
	var rounds []simRound
	for start := time.Now(); len(rounds) == 0 || (!o.traced && time.Since(start) < o.window); {
		r, err := in.round()
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	d := sampleProc().since(before)
	rep.set("peak_rss_mb", "MB", peakRSSMB(), "set-up and measured window")
	first := rounds[0]
	for _, r := range rounds[1:] {
		if r.equal.TaskLatency != first.equal.TaskLatency || r.oblivious.TaskLatency != first.oblivious.TaskLatency {
			rep.problem("the same trace gave different simulation summaries")
		}
	}
	eq, ob := first.equal.TaskLatency, first.oblivious.TaskLatency
	if eq.P99 >= ob.P99 {
		rep.problem("EqualMax-Credits p99 %.3f ms is not below Oblivious-Credits p99 %.3f ms", ms(eq.P99), ms(ob.P99))
	}
	simTasksDone := float64(len(rounds) * len(in.trace.Tasks) * 2)
	var perRound []float64
	for _, r := range rounds {
		perRound = append(perRound, float64(len(in.trace.Tasks)*2)/r.wall.Seconds())
	}
	rep.attempted += int(simTasksDone)
	fmt.Printf("sim: %d rounds of EqualMax-Credits vs Oblivious-Credits, %d tasks each; p99 %.3f vs %.3f ms\n",
		len(rounds), len(in.trace.Tasks), ms(eq.P99), ms(ob.P99))

	if o.traced {
		// The store layers come from the store phase; the simulator and
		// process metrics are the simulator's.
		sub := newReport()
		if err := traceStore(simStore, options{workload: o.workload, seed: o.seed, window: simStoreLength, traced: true, tmp: o.tmp}, sub); err != nil {
			return err
		}
		for _, name := range sub.order {
			m := sub.metrics[name]
			rep.set(m.name, m.unit, m.value, m.note)
		}
		rep.attempted += sub.attempted
		rep.failed += sub.failed
		rep.problems = append(rep.problems, sub.problems...)
		rep.set("e2e.cpu_us_per_op", "us", us(int64(d.cpu))/simTasksDone, "per simulated task")
		rep.set("e2e.saturated_cpu_us_per_op", "us", us(int64(d.cpu))/simTasksDone, "e2e.cpu_us_per_op: the simulator runs flat out on one core")
		rep.set("e2e.capacity_ops_s", "ops/s", perRound[0], "simulated tasks per wall-clock second")
		rep.set("e2e.read_p50_ms", "ms", ms(eq.Median), "simulated EqualMax-Credits task latency")
		rep.set("e2e.read_p99_ms", "ms", ms(eq.P99), "")
		rep.set("e2e.read_p999_ms", "ms", ms(eq.P999), "")
		rep.set("workload.generate_ms", "ms", median(gens), fmt.Sprintf("%d-task trace", simTasks))
		rep.set("engine.events_per_s", "1/s", float64(first.equal.Events+first.oblivious.Events)/first.wall.Seconds(), "")
		setProc(rep, d, int(simTasksDone))
		return nil
	}

	setup.report(rep, "trace generations")
	rep.set("read_p50_ms", "ms", ms(eq.Median), "simulated EqualMax-Credits task latency")
	rep.set("read_p99_ms", "ms", ms(eq.P99), fmt.Sprintf("Oblivious-Credits: %.3f", ms(ob.P99)))
	rep.set("read_p999_ms", "ms", ms(eq.P999), fmt.Sprintf("n=%d", eq.Count))
	rep.set("sim_tasks_s", "1/s", median(perRound), fmt.Sprintf("simulated tasks per wall-clock second, median of %d rounds", len(rounds)))
	rep.set("goodput_ops_s", "ops/s", float64(len(in.trace.Tasks))*fracAtMost(first.equal.TaskHist, int64(simLimit))/first.equal.SimulatedSeconds,
		fmt.Sprintf("EqualMax-Credits tasks within %v per simulated second: scheduling quality, not speed", simLimit))
	rep.set("cpu_us_per_op", "us", us(int64(d.cpu))/simTasksDone, "per simulated task")
	return nil
}
