package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/wire"
)

// stallOnceStore answers every read with correct values, but holds the
// first read for stall.
type stallOnceStore struct {
	netstore.Store
	stall time.Duration
	calls atomic.Int32
}

func (s *stallOnceStore) Multiget(ctx context.Context, keys []string, _ netstore.ReadOptions) (*netstore.TaskResult, error) {
	if s.calls.Add(1) == 1 {
		<-time.After(s.stall)
	}
	res := &netstore.TaskResult{Values: make([][]byte, len(keys)), Found: make([]bool, len(keys))}
	for i := range keys {
		res.Values[i], res.Found[i] = makeValue(i, 0, 64), true
	}
	return res, nil
}

// A stall must be charged to the ops that were due while it lasted: with
// one op in flight, every op due during the stall waits for it, and its
// latency, timed from its due time, includes the wait.
func TestPacerChargesStallToOpsDueDuringIt(t *testing.T) {
	const stall = 60 * time.Millisecond
	store := &stallOnceStore{stall: stall}
	ops := make([]benchOp, 30)
	due := make([]int64, len(ops))
	for i := range ops {
		ops[i] = benchOp{ids: []int{0, 1}, keys: []string{"key:0", "key:1"}}
		due[i] = int64(i) * int64(time.Millisecond)
	}
	x := &storeExec{store: store, ops: ops, timeout: time.Second, maxVer: []uint32{0, 0}}
	recs := pace(due, 1, 0, nil, x.do)
	for i, r := range recs {
		if r.out != okOutcome {
			t.Fatalf("op %d: outcome %d", i, r.out)
		}
		if i == 0 || r.due >= int64(stall) {
			continue
		}
		if min := int64(stall) - r.due; r.latency() < min {
			t.Errorf("op %d due at %v during the stall: latency %v, want >= %v", i, time.Duration(r.due), time.Duration(r.latency()), time.Duration(min))
		}
		if r.lag() <= 0 {
			t.Errorf("op %d due during the stall was issued %v late, want > 0", i, time.Duration(r.lag()))
		}
	}
	if last := recs[len(recs)-1]; last.start < int64(stall) {
		t.Errorf("last op issued at %v, before the stall ended", time.Duration(last.start))
	}
}

// The relay's parser must find every frame however the stream is cut
// into reads, and forward every byte unchanged.
func TestTapSurvivesFramesSplitAcrossReads(t *testing.T) {
	msgs := []wire.Message{
		&wire.BatchReq{Batch: 7, TaskID: 42, Priority: []int64{3, 1}, Keys: []string{"key:1", "key:2"}},
		&wire.BatchResp{Batch: 7, Values: [][]byte{makeValue(1, 0, 3000), makeValue(2, 0, 300)},
			Found: []bool{true, true}, Versions: []uint64{1, 1}, WaitNanos: 900, ServiceNanos: 400},
		&wire.Set{Seq: 9, Key: "key:3", Value: makeValue(3, 1, 70000)},
		&wire.SetResp{Seq: 9},
	}
	var stream []byte
	for _, m := range msgs {
		stream = wire.AppendEncode(stream, m)
	}
	for _, c := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one byte", iotest.OneByteReader},
		{"1-16 bytes", func(r io.Reader) io.Reader { return &chunkReader{r: r, rng: rand.New(rand.NewSource(1))} }},
		{"whole", func(r io.Reader) io.Reader { return r }},
	} {
		name, r := c.name, c.wrap(bytes.NewReader(stream))
		var dst bytes.Buffer
		var got [][]byte
		reads := 0
		err := tap(r, &dst, func(int) { reads++ }, func(p []byte) { got = append(got, append([]byte(nil), p...)) })
		if err == nil {
			t.Fatalf("%s: tap returned nil at end of stream", name)
		}
		if !bytes.Equal(dst.Bytes(), stream) {
			t.Errorf("%s: forwarded %d bytes, want the %d-byte stream unchanged", name, dst.Len(), len(stream))
		}
		if len(got) != len(msgs) {
			t.Fatalf("%s: parsed %d frames, want %d", name, len(got), len(msgs))
		}
		for i, m := range msgs {
			if want := wire.Encode(m)[4:]; !bytes.Equal(got[i], want) {
				t.Errorf("%s: frame %d differs from the encoded message", name, i)
			}
		}
		if name == "one byte" && reads != len(stream) {
			t.Errorf("one byte: counted %d reads, want %d", reads, len(stream))
		}
	}
}

// chunkReader returns reads of 1 to 16 bytes.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(16); len(p) > n {
		p = p[:n]
	}
	return c.r.Read(p)
}

// The percentile helper reports the highest percentile with at least ten
// samples beyond it.
func TestHighestResolvedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p999"}, {100000, "p9999"},
	} {
		if p := highestResolved(c.n); p.name != c.want {
			t.Errorf("highestResolved(%d) = %q, want %q", c.n, p.name, c.want)
		}
	}
}

func TestWindowedSplitsOnlyWhereEachPartResolves(t *testing.T) {
	xs := make([]int64, 10000)
	for i := range xs {
		xs[i] = int64(i % 1000)
	}
	if _, k := windowed(xs, p99); k != 10 {
		t.Errorf("p99 of 10000 samples: %d parts, want 10", k)
	}
	if _, k := windowed(xs, p999); k != 1 {
		t.Errorf("p999 of 10000 samples: %d parts, want 1", k)
	}
	// One part holding a stall moves the median of the parts by nothing.
	for i := 0; i < 2000; i++ {
		xs[i] = 1e6
	}
	if v, _ := windowed(xs, p99); v != 989 {
		t.Errorf("windowed p99 with one stalled part = %d, want 989", v)
	}
}

func TestCheckValueRejectsWrongKeyVersionAndBytes(t *testing.T) {
	v := makeValue(17, 3, 500)
	if !checkValue(v, 17, 3) {
		t.Fatal("a correct value was rejected")
	}
	if checkValue(v, 18, 3) {
		t.Error("another key's value was accepted")
	}
	if checkValue(v, 17, 2) {
		t.Error("a version never written was accepted")
	}
	bad := append([]byte(nil), v...)
	bad[len(bad)-1]++
	if checkValue(bad, 17, 3) {
		t.Error("a corrupted value was accepted")
	}
	if checkValue(v[:400], 17, 3) {
		t.Error("a truncated value was accepted")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25]; with [1, 2] it extrapolates to [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// The closed loop must issue every op exactly once, never have more than
// its callers in flight, and stop issuing at its deadline.
func TestDriveIssuesEachOpOnceWithinCallersAndDeadline(t *testing.T) {
	const callers = 4
	var inFlight, peak atomic.Int32
	seen := make([]atomic.Int32, 200)
	do := func(i int) outcome {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		seen[i].Add(1)
		<-time.After(100 * time.Microsecond)
		inFlight.Add(-1)
		return okOutcome
	}
	recs := drive(len(seen), callers, time.Minute, do)
	if len(recs) != len(seen) {
		t.Fatalf("issued %d of %d ops", len(recs), len(seen))
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Errorf("op %d issued %d times", i, n)
		}
	}
	if p := peak.Load(); p > callers {
		t.Errorf("%d ops in flight, want <= %d", p, callers)
	}

	slow := func(int) outcome { <-time.After(20 * time.Millisecond); return okOutcome }
	recs = drive(1000, 2, 50*time.Millisecond, slow)
	if len(recs) == 0 || len(recs) > 10 {
		t.Errorf("a 50 ms closed loop of two callers and 20 ms ops issued %d ops, want 1 to 10", len(recs))
	}
}

// A stall confined to one slice must not move the median slice rate.
func TestSliceRatesConfineAStallToItsSlice(t *testing.T) {
	var recs []opRec
	// 100 slices of 1 ms, 10 ops completing in each, except slice 7,
	// which completes none.
	for k := 0; k < 100; k++ {
		for j := 0; j < 10; j++ {
			t0 := int64(k)*int64(time.Millisecond) + int64(j)*50*int64(time.Microsecond)
			r := opRec{due: t0, start: t0, end: t0 + 10*int64(time.Microsecond)}
			if k == 7 {
				r.end = 8 * int64(time.Millisecond)
			}
			recs = append(recs, r)
		}
	}
	if got := median(sliceRates(recs, 10)); math.Abs(got-10000) > 200 {
		t.Errorf("median slice rate = %.0f ops/s, want about 10000", got)
	}
}

// compare must refuse result sets whose runs had different inputs.
func TestSameInputsRejectsOtherSeedsOrLengths(t *testing.T) {
	run := func(seed uint64, seconds int) *runFile {
		return &runFile{workload: "read-fanout", seed: seed, seconds: seconds}
	}
	parent := []*runFile{run(1, 12), run(2, 12)}
	if err := sameInputs(parent, []*runFile{run(2, 12), run(1, 12)}); err != nil {
		t.Errorf("same inputs in another order: %v", err)
	}
	for _, change := range [][]*runFile{
		{run(1, 12), run(3, 12)},
		{run(1, 12), run(2, 10)},
		{run(1, 12)},
	} {
		if err := sameInputs(parent, change); err == nil {
			t.Errorf("change runs %v passed as the parent's inputs", change)
		}
	}
}
