package main

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/credits"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/workload"
)

const (
	// simTasks is sim-fig2's task count per simulation: the paper's
	// Figure 2 set-up (9 servers, 18 clients, 70% load) at a size where
	// one EqualMax-Credits plus one Oblivious-Credits run takes about a
	// second on one core.
	simTasks = 40000
	// simLimit is the limit on simulated task latency for goodput
	// (Figure 2's axis ends at 15 ms).
	simLimit = 10 * time.Millisecond
)

func simConfig(seed uint64, tasks int) engine.Config {
	c := engine.Defaults()
	c.Tasks = tasks
	c.Seed = seed
	return c
}

func equalMaxCredits() engine.Strategy  { return credits.New(core.EqualMax{}, credits.Options{}) }
func obliviousCredits() engine.Strategy { return credits.New(core.Oblivious{}, credits.Options{}) }

// simInput is a generated simulator trace.
type simInput struct {
	cfg    engine.Config
	topo   *cluster.Topology
	trace  *workload.Trace
	digest uint64
	gen    time.Duration
}

func newSimInput(cfg engine.Config) (*simInput, error) {
	topo, err := cluster.New(cluster.Config{Servers: cfg.Servers, Partitions: cfg.Partitions, Replication: cfg.Replication})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr, err := workload.Generate(cfg.WorkloadConfig(), topo)
	if err != nil {
		return nil, err
	}
	in := &simInput{cfg: cfg, topo: topo, trace: tr, gen: time.Since(t0)}
	h := fnv.New64a()
	var b []byte
	for _, t := range tr.Tasks {
		b = binary.LittleEndian.AppendUint64(b[:0], t.ID)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.ArriveAt))
		for _, r := range t.Requests {
			b = binary.LittleEndian.AppendUint64(b, r.Key)
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Size))
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Service))
		}
		h.Write(b)
	}
	in.digest = h.Sum64()
	return in, nil
}

// simRound is one EqualMax-Credits and one Oblivious-Credits run over
// the same trace.
type simRound struct {
	equal, oblivious engine.Result
	wall             time.Duration
}

func (in *simInput) round() (simRound, error) {
	t0 := time.Now()
	eq, err := engine.RunTrace(in.cfg, equalMaxCredits(), in.topo, in.trace)
	if err != nil {
		return simRound{}, err
	}
	ob, err := engine.RunTrace(in.cfg, obliviousCredits(), in.topo, in.trace)
	if err != nil {
		return simRound{}, err
	}
	return simRound{equal: eq, oblivious: ob, wall: time.Since(t0)}, nil
}

// fracAtMost returns the share of a histogram's samples at or below x,
// to the histogram's precision.
func fracAtMost(h *metrics.Histogram, x int64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if h.Quantile(mid) <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
