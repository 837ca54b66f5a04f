package main

// Per-layer timings taken by calling a layer's public functions from
// outside, over inputs rebuilt from the run: its ops, its keys, and the
// frames the relay captured.

import (
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/wire"
)

// microMin is the least time one repetition of a timing loop runs, and
// microReps the repetitions whose median is reported.
const (
	microMin  = 20 * time.Millisecond
	microReps = 5
)

// timeEach runs body (which does n units of work) until microMin has
// passed, microReps times, and returns the median nanoseconds per unit.
func timeEach(n int, body func()) float64 {
	if n == 0 {
		return 0
	}
	per := make([]float64, microReps)
	for r := range per {
		t0 := time.Now()
		loops := 0
		for time.Since(t0) < microMin {
			body()
			loops++
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(loops*n)
	}
	return median(per)
}

// defaultCostModel is the cluster client's default cost forecast.
var defaultCostModel = core.CostModel{BaseNanos: 1000, PerBytePico: 1000}

// assignNsPerOp times core.EqualMax.Assign over tasks rebuilt from the
// run's reads the way the cluster client builds them: one request per
// key, grouped by shard, costed from the key's size.
func assignNsPerOp(ops []benchOp, ks *keyspace, topo *cluster.ShardTopology) float64 {
	type prepared struct {
		t    *core.Task
		subs []core.SubTask
	}
	var tasks []prepared
	for i := range ops {
		op := &ops[i]
		if op.write {
			continue
		}
		t := &core.Task{ID: uint64(i)}
		for j, id := range op.ids {
			size := int64(ks.sizes[id])
			t.Requests = append(t.Requests, &core.Request{
				ID: uint64(j), TaskID: t.ID,
				Group:   cluster.GroupID(topo.ShardOfKey(op.keys[j])),
				Size:    size,
				EstCost: defaultCostModel.Estimate(size),
			})
		}
		tasks = append(tasks, prepared{t, core.Decompose(t)})
	}
	var a core.EqualMax
	return timeEach(len(tasks), func() {
		for _, p := range tasks {
			a.Assign(p.t, p.subs)
		}
	})
}

// kvGetNs times kv.Store.GetVersion on the servers' own stores over the
// keys the run read, each key on a server of its shard.
func kvGetNs(env *storeEnv, ops []benchOp) float64 {
	type lookup struct {
		srv int
		key string
	}
	var ls []lookup
	for i := range ops {
		if ops[i].write {
			continue
		}
		for _, k := range ops[i].keys {
			ls = append(ls, lookup{env.topo.ShardOfKey(k) * env.w.replicas, k})
		}
	}
	return timeEach(len(ls), func() {
		for _, l := range ls {
			env.servers[l.srv].Store().GetVersion(l.key)
		}
	})
}

// codecNsPerFrame replays captured frames through the codec: decode
// times wire.DecodeAlias over the payloads, encode times wire.AppendEncode
// of the decoded messages into one reused buffer.
func codecNsPerFrame(frames [][]byte) (encode, decode float64) {
	msgs := make([]wire.Message, 0, len(frames))
	for _, f := range frames {
		if m, err := wire.Decode(f); err == nil {
			msgs = append(msgs, m)
		}
	}
	decode = timeEach(len(frames), func() {
		for _, f := range frames {
			_, _ = wire.DecodeAlias(f)
		}
	})
	buf := make([]byte, 0, 1<<20)
	encode = timeEach(len(msgs), func() {
		for _, m := range msgs {
			buf = wire.AppendEncode(buf[:0], m)
		}
	})
	return encode, decode
}

// simMicroTasks sizes the simulator timing the store workloads take.
const simMicroTasks = 5000

// simMicro times workload.Generate and one EqualMax-Credits run of the
// simulator on a small trace: generate milliseconds and engine events
// per second.
func simMicro(seed uint64) (genMs, eventsPerSec float64, err error) {
	var gens []float64
	var in *simInput
	for r := 0; r < microReps; r++ {
		if in, err = newSimInput(simConfig(seed, simMicroTasks)); err != nil {
			return 0, 0, err
		}
		gens = append(gens, ms(int64(in.gen)))
	}
	t0 := time.Now()
	res, err := engine.RunTrace(in.cfg, equalMaxCredits(), in.topo, in.trace)
	if err != nil {
		return 0, 0, err
	}
	return median(gens), float64(res.Events) / time.Since(t0).Seconds(), nil
}
