package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/brb-repro/brb/internal/wire"
)

// batchSpan is one BatchReq→BatchResp exchange as the relay saw it.
type batchSpan struct {
	server    int
	task, sig uint64
	t0, t1    int64
	keys      int
	wait, svc int64
	qlen      uint32
	op        int // index into the joined op list, -1 when unjoined
}

// setSpan is one Set→SetResp exchange as the relay saw it.
type setSpan struct {
	server int
	t0, t1 int64
}

// opSpan is one benchmark op of a traced run, with its store call.
type opSpan struct {
	run, index int
	write      bool
	sig        uint64
	call       callSpan
}

// traceAnalysis is what the traced run learns from joining the
// benchmark's op spans with the relay's wire spans.
type traceAnalysis struct {
	ops                []opSpan
	batches            []batchSpan
	sets               []setSpan
	multiget, setCall  dist
	self               dist // multiget span minus its slowest batch
	residence, io      dist
	qlen               dist
	srvSet             dist
	svcNanos, svcKeys  int64
	readOps, writeOps  int
	joined             int
	toServer0, batchN  int
	frames, bytes, rds int64
}

// analyze joins the op spans of the traced runs with the wire events.
// Batches are grouped by their wire task id; a task's batches carry the
// op's keys split by shard (hedges repeat a shard's keys), so the sum of
// the distinct batch signatures is the op's key signature. Tasks are
// matched to ops with that signature in call order, which is the order
// the client numbers its tasks.
func analyze(runs []*runResult, events []wireEvent, tr *tracer) *traceAnalysis {
	a := &traceAnalysis{frames: tr.frames.Load(), bytes: tr.bytes.Load(), rds: tr.reads.Load()}
	var mg, sc []int64
	for ri, r := range runs {
		for i := range r.p.ops {
			op := &r.p.ops[i]
			if r.recs[i].out != okOutcome {
				continue
			}
			s := opSpan{run: ri, index: i, write: op.write, call: r.spans[i]}
			if op.write {
				a.writeOps++
				sc = append(sc, s.call.t1-s.call.t0)
			} else {
				a.readOps++
				s.sig = keySig(op.keys)
				mg = append(mg, s.call.t1-s.call.t0)
			}
			a.ops = append(a.ops, s)
		}
	}
	a.multiget, a.setCall = newDist(mg), newDist(sc)

	type pending struct {
		conn int32
		id   uint64
		set  bool
	}
	reqs := map[pending]wireEvent{}
	var res, io, ql, srvSet []int64
	for _, ev := range events {
		switch ev.typ {
		case wire.TBatchReq:
			reqs[pending{ev.conn, ev.id, false}] = ev
		case wire.TSet:
			reqs[pending{ev.conn, ev.id, true}] = ev
		case wire.TBatchResp:
			k := pending{ev.conn, ev.id, false}
			req, ok := reqs[k]
			if !ok {
				continue
			}
			delete(reqs, k)
			b := batchSpan{server: int(req.server), task: req.task, sig: req.sig, t0: req.t, t1: ev.t,
				keys: int(req.keys), wait: ev.wait, svc: ev.svc, qlen: ev.qlen, op: -1}
			a.batches = append(a.batches, b)
			res = append(res, b.wait)
			io = append(io, (b.t1-b.t0)-b.wait)
			ql = append(ql, int64(b.qlen))
			a.svcNanos += b.svc
			a.svcKeys += int64(b.keys)
			a.batchN++
			if b.server == 0 {
				a.toServer0++
			}
		case wire.TSetResp:
			k := pending{ev.conn, ev.id, true}
			req, ok := reqs[k]
			if !ok {
				continue
			}
			delete(reqs, k)
			a.sets = append(a.sets, setSpan{server: int(req.server), t0: req.t, t1: ev.t})
			srvSet = append(srvSet, ev.t-req.t)
		}
	}
	a.residence, a.io, a.qlen, a.srvSet = newDist(res), newDist(io), newDist(ql), newDist(srvSet)

	// Join tasks to ops.
	byTask := map[uint64][]int{}
	var tasks []uint64
	for i := range a.batches {
		t := a.batches[i].task
		if _, ok := byTask[t]; !ok {
			tasks = append(tasks, t)
		}
		byTask[t] = append(byTask[t], i)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	readIdx := make([]int, 0, a.readOps)
	for i := range a.ops {
		if !a.ops[i].write {
			readIdx = append(readIdx, i)
		}
	}
	sort.SliceStable(readIdx, func(i, j int) bool { return a.ops[readIdx[i]].call.t0 < a.ops[readIdx[j]].call.t0 })
	queue := map[uint64][]int{}
	for _, i := range readIdx {
		queue[a.ops[i].sig] = append(queue[a.ops[i].sig], i)
	}
	var self []int64
	for _, t := range tasks {
		seen := map[uint64]bool{}
		var sig uint64
		var slowest int64
		for _, bi := range byTask[t] {
			b := &a.batches[bi]
			if !seen[b.sig] { // hedges repeat a shard's batch
				seen[b.sig] = true
				sig += b.sig
			}
			if d := b.t1 - b.t0; d > slowest {
				slowest = d
			}
		}
		q := queue[sig]
		if len(q) == 0 {
			continue
		}
		oi := q[0]
		queue[sig] = q[1:]
		for _, bi := range byTask[t] {
			a.batches[bi].op = oi
		}
		a.joined++
		op := &a.ops[oi]
		self = append(self, (op.call.t1-op.call.t0)-slowest)
	}
	a.self = newDist(self)
	return a
}

// writeSpans writes every span of the traced run as JSON lines: op spans
// first, then the batch and write spans the relay saw. Batch spans carry
// the id of the op they were joined to, so all spans of one op share it.
func (a *traceAnalysis) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	opID := func(i int) string { return fmt.Sprintf("r%d-%d", a.ops[i].run, a.ops[i].index) }
	for i, op := range a.ops {
		name := "multiget"
		if op.write {
			name = "set"
		}
		fmt.Fprintf(w, `{"span":%q,"op":%q,"t0":%d,"t1":%d}`+"\n", name, opID(i), op.call.t0, op.call.t1)
	}
	for _, b := range a.batches {
		id := ""
		if b.op >= 0 {
			id = opID(b.op)
		}
		fmt.Fprintf(w, `{"span":"server.batch","op":%q,"task":%d,"server":%d,"t0":%d,"t1":%d,"keys":%d,"wait_ns":%d,"service_ns":%d,"queue_len":%d}`+"\n",
			id, b.task, b.server, b.t0, b.t1, b.keys, b.wait, b.svc, b.qlen)
	}
	for _, s := range a.sets {
		fmt.Fprintf(w, `{"span":"server.set","server":%d,"t0":%d,"t1":%d}`+"\n", s.server, s.t0, s.t1)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
