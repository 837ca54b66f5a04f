package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/testutil"
)

// captureStore records everything the engine issues through it; the
// configurable error lets tests drive the outcome classification.
type captureStore struct {
	mu      sync.Mutex
	gets    int
	sets    int
	dels    int
	keys    int
	biases  map[int64]int // PriorityBias -> read count
	wrote   uint64
	readErr error
	closed  atomic.Bool
}

func newCaptureStore() *captureStore {
	return &captureStore{biases: map[int64]int{}}
}

func (s *captureStore) Get(ctx context.Context, key string, opts netstore.ReadOptions) ([]byte, bool, error) {
	return nil, false, nil
}

func (s *captureStore) Multiget(ctx context.Context, keys []string, opts netstore.ReadOptions) (*netstore.TaskResult, error) {
	s.mu.Lock()
	s.gets++
	s.keys += len(keys)
	s.biases[opts.PriorityBias]++
	err := s.readErr
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	res := &netstore.TaskResult{
		Values:  make([][]byte, len(keys)),
		Found:   make([]bool, len(keys)),
		Latency: time.Duration(1+len(keys)) * time.Millisecond,
		Hedged:  1,
	}
	return res, nil
}

func (s *captureStore) Set(ctx context.Context, key string, value []byte, opts netstore.WriteOptions) error {
	s.mu.Lock()
	s.sets++
	s.wrote += uint64(len(value))
	s.mu.Unlock()
	return nil
}

func (s *captureStore) Delete(ctx context.Context, key string, opts netstore.WriteOptions) error {
	s.mu.Lock()
	s.dels++
	s.mu.Unlock()
	return nil
}

func (s *captureStore) Close() { s.closed.Store(true) }

func runSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(`
name: run-test
seed: 9
keys: 100
classes:
  - name: gold
    priority: 0
  - name: bronze
    priority: 2
clients:
  - name: fast
    class: gold
    workers: 2
    ops: 40
    keys: {dist: uniform}
    fanout: {mean: 2}
  - name: slow
    class: bronze
    ops: 30
    keys: {dist: uniform}
    mix: {write: 0.3, delete: 0.1}
    fanout: {mean: 1}
`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return spec
}

func TestRunClosedLoop(t *testing.T) {
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var mu sync.Mutex
	stores := map[string]*captureStore{}
	post := map[string]int{}
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			st := newCaptureStore()
			mu.Lock()
			stores[fmt.Sprintf("%s/%d", client, worker)] = st
			mu.Unlock()
			return st, nil
		},
		ClassBias: spec.ClassBias,
		PostWorker: func(client string, worker int, st netstore.Store) {
			mu.Lock()
			post[fmt.Sprintf("%s/%d", client, worker)]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stores) != 3 {
		t.Fatalf("dialed %d stores, want 3 (fast/0 fast/1 slow/0)", len(stores))
	}
	if rep.TotalOps != 70 {
		t.Fatalf("TotalOps = %d, want 70", rep.TotalOps)
	}
	// Report rows come most-urgent first.
	if rep.Classes[0].Class != "gold" || rep.Classes[1].Class != "bronze" {
		t.Fatalf("class order: %+v", rep.Classes)
	}
	gold, bronze := rep.Classes[0], rep.Classes[1]
	if gold.Ops != 40 || bronze.Ops != 30 {
		t.Fatalf("per-class ops gold=%d bronze=%d, want 40/30", gold.Ops, bronze.Ops)
	}
	if gold.Errors != 0 || gold.Expired != 0 || bronze.Errors != 0 {
		t.Fatalf("unexpected failures: %+v", rep.Classes)
	}
	// The capture store reports Hedged=1 per read.
	if gold.Hedged != gold.Ops {
		t.Fatalf("gold hedges = %d, want %d", gold.Hedged, gold.Ops)
	}
	if gold.Latency.Count != gold.Ops {
		t.Fatalf("gold latency count %d, want %d", gold.Latency.Count, gold.Ops)
	}
	// Bias plumbing: fast's reads carry gold's bias (0), slow's carry
	// bronze's (2 units); writes don't consult the bias.
	for name, st := range stores {
		wantBias := int64(0)
		if name == "slow/0" {
			wantBias = 2 * ClassBiasUnit
		}
		if st.biases[wantBias] != st.gets {
			t.Fatalf("%s: biases %v over %d reads, want all at %d", name, st.biases, st.gets, wantBias)
		}
		if !st.closed.Load() {
			t.Fatalf("%s: store left open", name)
		}
	}
	slow := stores["slow/0"]
	if slow.sets == 0 || slow.dels == 0 {
		t.Fatalf("slow mix not exercised: sets=%d dels=%d", slow.sets, slow.dels)
	}
	if bronze.BytesWritten != slow.wrote {
		t.Fatalf("bronze bytes written %d, store saw %d", bronze.BytesWritten, slow.wrote)
	}
	for name, n := range post {
		if n != 1 {
			t.Fatalf("PostWorker ran %d times for %s", n, name)
		}
	}
	if len(post) != 3 {
		t.Fatalf("PostWorker covered %d workers, want 3", len(post))
	}
	// The formatted report carries the CI-grepped per-class lines.
	out := rep.String()
	for _, want := range []string{"class gold (prio 0):", "class bronze (prio 2):", "p999="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunClassifiesDeadlineErrors(t *testing.T) {
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			st := newCaptureStore()
			if client == "fast" {
				st.readErr = fmt.Errorf("deadline: %w", context.DeadlineExceeded)
			}
			return st, nil
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	gold := rep.Classes[0]
	if gold.Expired != gold.Ops || gold.Errors != 0 {
		t.Fatalf("deadline misses misclassified: %+v", gold)
	}
	if gold.Latency.Count != 0 {
		t.Fatalf("expired reads leaked into the latency histogram: %d", gold.Latency.Count)
	}
}

func TestRunCountsHardErrors(t *testing.T) {
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Uint64
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			st := newCaptureStore()
			if client == "slow" {
				st.readErr = fmt.Errorf("wire: connection wedged")
			}
			return st, nil
		},
		OnError: func(client string, worker int, err error) { seen.Add(1) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bronze := rep.Classes[1]
	if bronze.Errors == 0 || bronze.Errors != seen.Load() {
		t.Fatalf("hard errors: counted %d, hook saw %d", bronze.Errors, seen.Load())
	}
}

func TestRunPacedOpenLoop(t *testing.T) {
	// A small paced stream: 40 ops at 10k/s is 4ms of schedule. The
	// point is the paced path (timers, in-flight cap), not throughput.
	spec, err := ParseSpec([]byte(`
name: paced
seed: 11
keys: 50
clients:
  - name: open
    ops: 40
    arrival: {process: poisson, rate: 10000}
    keys: {dist: uniform}
    fanout: {mean: 1}
`))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if ops[i].TS == 0 {
			t.Fatalf("open-loop op %d missing timestamp", i)
		}
	}
	st := newCaptureStore()
	rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
		Dial:        func(string, int, int) (netstore.Store, error) { return st, nil },
		MaxInFlight: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps != 40 || st.gets != 40 {
		t.Fatalf("paced run issued %d/%d ops", st.gets, rep.TotalOps)
	}
	if rep.Wall < 3*time.Millisecond {
		t.Fatalf("paced run finished in %v — pacing not applied", rep.Wall)
	}
}

func TestRunReplayEqualsGenerate(t *testing.T) {
	// The engine cannot tell replayed ops from generated ones: same
	// issue counts, same per-class tallies (latency aside).
	spec := runSpec(t)
	ops, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ops []Op) *Report {
		rep, err := Run(context.Background(), spec.Classes, ops, RunConfig{
			Dial: func(string, int, int) (netstore.Store, error) { return newCaptureStore(), nil },
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	a := run(ops)
	// Round-trip through the trace layer, then run the replayed ops.
	var rec []Op
	{
		var err error
		_, rec, err = roundTrip(NewTraceHeader(spec), ops)
		if err != nil {
			t.Fatal(err)
		}
	}
	b := run(rec)
	for i := range a.Classes {
		x, y := a.Classes[i], b.Classes[i]
		if x.Class != y.Class || x.Ops != y.Ops || x.KeysRead != y.KeysRead || x.BytesWritten != y.BytesWritten {
			t.Fatalf("replayed run diverged for class %s:\n%+v\n%+v", x.Class, x, y)
		}
	}
}

func roundTrip(h TraceHeader, ops []Op) (TraceHeader, []Op, error) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, ops); err != nil {
		return h, nil, err
	}
	return ReadTrace(&buf)
}

// gatedStore holds its first read until gate closes; everything else
// returns at once.
type gatedStore struct {
	*captureStore
	gate  chan struct{}
	first atomic.Bool
}

func (s *gatedStore) Multiget(ctx context.Context, keys []string, opts netstore.ReadOptions) (*netstore.TaskResult, error) {
	if s.first.CompareAndSwap(false, true) {
		<-s.gate
	}
	return s.captureStore.Multiget(ctx, keys, opts)
}

// Paced ops are timed from their due time, writes included: while the
// first read holds the only in-flight slot, the read and the Set due
// behind it wait, and that wait is charged to them — timing from issue
// would hide it.
func TestRunTimesFromDueTime(t *testing.T) {
	const hold = 40 * time.Millisecond
	ops := []Op{
		{TS: int64(time.Millisecond), Client: "c", Seq: 0, Kind: OpGet, Keys: []int{1}},
		{TS: int64(2 * time.Millisecond), Client: "c", Seq: 1, Kind: OpGet, Keys: []int{2}},
		{TS: int64(3 * time.Millisecond), Client: "c", Seq: 2, Kind: OpSet, Keys: []int{3}, Size: 8},
	}
	st := &gatedStore{captureStore: newCaptureStore(), gate: make(chan struct{})}
	start := time.Now()
	go func() {
		testutil.Eventually(t, 10*time.Second, "the hold to pass", func() bool { return time.Since(start) > hold })
		close(st.gate)
	}()
	rep, err := Run(context.Background(), nil, ops, RunConfig{
		Dial:        func(string, int, int) (netstore.Store, error) { return st, nil },
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	if c.Latency.Count != 2 || c.WriteLatency.Count != 1 {
		t.Fatalf("latency samples: %d reads, %d writes; want 2 and 1", c.Latency.Count, c.WriteLatency.Count)
	}
	// Each op fell due within 3 ms of the start and was released after
	// the hold, so each waited at least hold-3ms from its due time.
	floor := (hold - 3*time.Millisecond).Nanoseconds()
	if c.Latency.Min < floor || c.WriteLatency.Min < floor {
		t.Fatalf("min latency read %v write %v, want ≥ %v from the due time",
			time.Duration(c.Latency.Min), time.Duration(c.WriteLatency.Min), time.Duration(floor))
	}
	if out := rep.String(); !strings.Contains(out, " write_p50=") || !strings.Contains(out, " write_p99=") {
		t.Fatalf("report lacks write latency:\n%s", out)
	}
}
