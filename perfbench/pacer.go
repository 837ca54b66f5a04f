package main

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/netstore"
)

// outcome classifies one finished op.
type outcome uint8

const (
	okOutcome        outcome = iota
	errOutcome               // the store returned a hard error
	expiredOutcome           // the op's deadline ran out
	cancelledOutcome         // the op's context was cancelled
	wrongOutcome             // the store answered, with a wrong or missing value
)

// opRec is one op's timeline, in nanoseconds since the schedule's start.
// Latency is end-due: an op that waited because the pacer or the store
// stalled is charged the wait.
type opRec struct {
	due, start, end int64
	out             outcome
}

func (r opRec) latency() int64 { return r.end - r.due }
func (r opRec) lag() int64     { return r.start - r.due }

// pace is the open-loop load generator. One goroutine issues op i at
// start+due[i], each in its own goroutine, with at most maxInFlight
// outstanding; when the bound is reached the issuing goroutine waits, and
// the ops behind it are charged that wait because their latency runs from
// their due time. onWindow, if not nil, runs just before op windowFrom is
// issued (the start of the measured window).
func pace(due []int64, maxInFlight, windowFrom int, onWindow func(), do func(i int) outcome) []opRec {
	recs := make([]opRec, len(due))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := time.Duration(d) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if i == windowFrom && onWindow != nil {
			onWindow()
		}
		sem <- struct{}{}
		recs[i].due = d
		recs[i].start = int64(time.Since(start))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := do(i)
			recs[i].end = int64(time.Since(start))
			recs[i].out = out
			<-sem
		}(i)
	}
	wg.Wait()
	return recs
}

// drive is the closed-loop load generator: callers goroutines each issue
// the next op as soon as their last one returned, until all n are issued
// or length has passed. It returns the records of the issued ops, which
// are ops 0 to len-1; an op's due time is its start.
func drive(n, callers int, length time.Duration, do func(i int) outcome) []opRec {
	recs := make([]opRec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < length {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := int64(time.Since(start))
				recs[i].due, recs[i].start = t, t
				out := do(i)
				recs[i].end = int64(time.Since(start))
				recs[i].out = out
			}
		}()
	}
	wg.Wait()
	return recs[:min(int(next.Load()), n)]
}

// sliceRates splits the time over which recs were issued, from 0 to the
// last start, into parts equal slices, throughout which every caller is
// busy, and returns each slice's ops completed per second.
func sliceRates(recs []opRec, parts int) []float64 {
	var last int64
	for _, r := range recs {
		last = max(last, r.start)
	}
	counts := make([]float64, parts)
	if last == 0 {
		return counts
	}
	for _, r := range recs {
		if k := int(r.end * int64(parts) / last); k < parts {
			counts[k]++
		}
	}
	slice := float64(last) / float64(parts) / 1e9
	for k := range counts {
		counts[k] /= slice
	}
	return counts
}

// benchOp is one store operation ready to issue: keys formatted and
// write values built during set-up, so the measured window formats
// nothing.
type benchOp struct {
	write bool
	ids   []int
	keys  []string
	value []byte // writes only
}

// callSpan is the interval of one call into the store, in nanoseconds
// since the trace epoch.
type callSpan struct{ t0, t1 int64 }

// storeExec runs benchOps against a netstore.Store and checks every
// value a read returns.
type storeExec struct {
	store   netstore.Store
	ops     []benchOp
	ropts   netstore.ReadOptions
	wopts   netstore.WriteOptions
	timeout time.Duration
	// maxVer[id] is the highest value version any op may have written to
	// key id; a read returning a higher one is wrong.
	maxVer []uint32
	// spans, when not nil, receives the interval of each op's store call
	// (the traced run).
	spans []callSpan
	epoch time.Time
}

func (x *storeExec) do(i int) outcome {
	op := &x.ops[i]
	ctx, cancel := context.WithTimeout(context.Background(), x.timeout)
	defer cancel()
	var t0 time.Time
	if x.spans != nil {
		t0 = time.Now()
	}
	var err error
	var res *netstore.TaskResult
	if op.write {
		err = x.store.Set(ctx, op.keys[0], op.value, x.wopts)
	} else {
		res, err = x.store.Multiget(ctx, op.keys, x.ropts)
	}
	if x.spans != nil {
		x.spans[i] = callSpan{int64(t0.Sub(x.epoch)), int64(time.Since(x.epoch))}
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		return expiredOutcome
	case errors.Is(err, context.Canceled):
		return cancelledOutcome
	default:
		return errOutcome
	}
	if res != nil {
		for j, id := range op.ids {
			if !res.Found[j] || !checkValue(res.Values[j], id, x.maxVer[id]) {
				return wrongOutcome
			}
		}
	}
	return okOutcome
}

// Values encode the key id and a version so that a read can prove it got
// the right key's bytes: a 16-byte header (id, version, length) and a
// filler every byte of which follows from the header.
const valueHeader = 16

func makeValue(id int, ver uint32, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v[0:], uint64(id))
	binary.BigEndian.PutUint32(v[8:], ver)
	binary.BigEndian.PutUint32(v[12:], uint32(size))
	for j := valueHeader; j < size; j++ {
		v[j] = fillByte(id, ver, j)
	}
	return v
}

func fillByte(id int, ver uint32, j int) byte {
	return byte(uint32(id)*7 + ver*13 + uint32(j)*131)
}

// valueVersion returns the version a value carries.
func valueVersion(v []byte) uint32 { return binary.BigEndian.Uint32(v[8:]) }

// checkValue reports whether v is a value of key id at a version no
// higher than maxVer. It checks the header and the first and last filler
// bytes; a full scan would put the check's own cost on the clock.
func checkValue(v []byte, id int, maxVer uint32) bool {
	if len(v) < valueHeader || binary.BigEndian.Uint64(v[0:]) != uint64(id) ||
		int(binary.BigEndian.Uint32(v[12:])) != len(v) {
		return false
	}
	ver := valueVersion(v)
	if ver > maxVer {
		return false
	}
	for _, j := range [...]int{valueHeader, valueHeader + 1, len(v) - 2, len(v) - 1} {
		if j >= valueHeader && v[j] != fillByte(id, ver, j) {
			return false
		}
	}
	return true
}
