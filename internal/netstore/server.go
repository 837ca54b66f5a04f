// Package netstore is the real, goroutine-based implementation of a
// BRB-scheduled data store: a TCP key-value server whose request scheduler
// drains a priority queue with a bounded worker pool (one goroutine per
// core), a task-aware client library sharing the priority-assignment code
// (internal/core) with the simulator, and a credits controller speaking
// the same wire protocol.
//
// It is the artifact a downstream user would deploy: the simulator
// validates the algorithms at scale, netstore validates that they are
// implementable with the signals a real deployment has (value sizes from
// store metadata, demand from client counters, priorities on the wire).
package netstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/wire"
)

// Discipline selects the server's scheduling queue.
type Discipline int

// Disciplines.
const (
	// Priority serves the lowest-priority-value pending key first (BRB).
	Priority Discipline = iota
	// FIFO serves keys in arrival order (task-oblivious baseline).
	FIFO
)

// ServerOptions configure a Server.
type ServerOptions struct {
	// Workers is the number of service goroutines ("cores"). Default 4,
	// the paper's concurrency level.
	Workers int
	// SchedShards is the number of scheduler shards (default
	// min(Workers, GOMAXPROCS)). Each worker homes on one shard and
	// steals from the others when its own runs dry; 1 recovers the
	// single global queue. Arriving batches are placed whole on one
	// shard round-robin, so ordering within a batch is always the
	// discipline's; ordering BETWEEN batches is guaranteed per shard
	// only (see DESIGN.md §13).
	SchedShards int
	// Discipline selects priority (default) or FIFO scheduling.
	Discipline Discipline
	// ServiceDelay, when non-nil, adds an artificial per-key service
	// time as a function of the value size — used by validation
	// experiments to recreate the simulator's size-dependent service
	// costs on fast hardware. nil means no added delay.
	ServiceDelay func(valueSize int64) time.Duration
	// Shard, with CheckShard set, is the shard group this server belongs
	// to in a sharded cluster: batches whose routing header names a
	// different shard are rejected with wire.FlagMisrouted instead of
	// silently answering "not found" for keys the server never stored.
	Shard int
	// CheckShard enables shard validation. Single-tier deployments (the
	// plain Client) leave it off and the server accepts every batch.
	// With a topology installed (SetTopology or a wire push), validation
	// upgrades from the whole-batch header check to per-key ownership:
	// keys the topology assigns elsewhere are rejected as strays
	// (BatchResp.Stray) or NotOwner (writes) instead of trusting the
	// client's routing.
	CheckShard bool
	// TombstoneGCHorizon, when positive, enables tombstone garbage
	// collection on the server's store: tombstones older than the
	// horizon are dropped by a bounded periodic sweep. The horizon must
	// exceed the longest plausible delayed-replay window (see
	// kv.Store.StartTombstoneGC).
	TombstoneGCHorizon time.Duration
	// TombstoneGCInterval is the sweep tick (default horizon/10, floor
	// 1s; each tick sweeps 1/NumShards of the store).
	TombstoneGCInterval time.Duration
	// Fault, when non-nil, injects deterministic service faults into
	// this server — per-request added latency and stall-the-next-N
	// gates (see FaultInjector) — for tests and the load harness's
	// slow-replica experiments. Production servers leave it nil.
	Fault *FaultInjector

	// DataDir, when set, makes the server durable (NewDurableServer):
	// writes go through a segmented WAL in this directory, periodic
	// snapshots truncate it, and the store is recovered from disk at
	// construction — BEFORE Serve, so a restarted replica replays
	// locally first and hinted-handoff only tops up the post-crash tail.
	DataDir string
	// Fsync is the WAL sync policy: always (default; acked ⇒ durable),
	// interval, or never. See kv.FsyncPolicy.
	Fsync kv.FsyncPolicy
	// FsyncInterval is the background sync period under Fsync=interval
	// (default 50ms).
	FsyncInterval time.Duration
	// SnapshotInterval is the periodic snapshot period (default 1m;
	// every snapshot truncates WAL segments behind it). The tombstone-GC
	// horizon is clamped to at least this interval (kv.ClampGCHorizon).
	SnapshotInterval time.Duration
	// WALSegmentBytes is the segment rotation size (default 8 MiB).
	WALSegmentBytes int64
	// DiskFault injects disk faults (fsync errors, snapshot-rename
	// crashes) into the durability layer for tests. Production servers
	// leave it nil.
	DiskFault *kv.DiskFaultInjector
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.SchedShards <= 0 {
		o.SchedShards = o.Workers
		if p := runtime.GOMAXPROCS(0); p < o.SchedShards {
			o.SchedShards = p
		}
		if o.SchedShards < 1 {
			o.SchedShards = 1
		}
	}
	return o
}

// Server is a networked key-value server with task-aware scheduling.
type Server struct {
	opts  ServerOptions
	store *kv.Store
	// dur is the durability layer (nil for memory-only servers). Writes
	// route through it; a WAL failure fail-stops the write path (no ack,
	// connection closed) while reads keep serving from memory.
	dur *kv.Durable
	// syncApply is set when a write's apply waits for an fsync
	// (FsyncAlways): the handler pushes its staged acks before each one.
	syncApply bool
	sched     *scheduler

	// topo is the server's current epoch-versioned topology (nil until
	// installed by SetTopology or a wire Topo push). With CheckShard set
	// it upgrades shard validation to per-key ownership checks.
	topo atomic.Pointer[cluster.ShardTopology]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	gcStop func()

	served atomic.Uint64
}

// Served returns the number of keys this server has serviced.
func (s *Server) Served() uint64 { return s.served.Load() }

// SchedSteals returns the number of work items this server's workers
// popped from a scheduler shard other than their home shard.
func (s *Server) SchedSteals() uint64 { return s.sched.steals.Load() }

// NewServer creates a memory-only server over the given store. For a
// durable server (opts.DataDir set) use NewDurableServer, which can
// fail on recovery.
func NewServer(store *kv.Store, opts ServerOptions) *Server {
	if opts.DataDir != "" {
		panic("netstore: DataDir set; use NewDurableServer")
	}
	return newServer(store, nil, opts)
}

// NewDurableServer recovers opts.DataDir into store (newest snapshot,
// then the WAL tail) and returns a server whose writes are logged
// before they are acknowledged. Recovery happens here — before Serve —
// so by the time the revival prober re-admits this replica and hinted
// handoff replays buffered writes, the disk state is already live and
// hints are a strictly newer top-up (versioned LWW absorbs any
// overlap).
func NewDurableServer(store *kv.Store, opts ServerOptions) (*Server, kv.ReplayStats, error) {
	if opts.DataDir == "" {
		return nil, kv.ReplayStats{}, errors.New("netstore: NewDurableServer requires DataDir")
	}
	snapInterval := opts.SnapshotInterval
	if snapInterval <= 0 {
		snapInterval = time.Minute
	}
	dur, stats, err := kv.OpenDurable(opts.DataDir, store, kv.DurableOptions{
		Fsync:            opts.Fsync,
		FsyncInterval:    opts.FsyncInterval,
		SegmentBytes:     opts.WALSegmentBytes,
		SnapshotInterval: snapInterval,
		Fault:            opts.DiskFault,
	})
	if err != nil {
		return nil, stats, err
	}
	// A tombstone aged out of memory before a snapshot captured the
	// state around it would make replay diverge from the live store;
	// purge records close that gap, the clamp keeps the horizon from
	// depending on them alone.
	opts.TombstoneGCHorizon = kv.ClampGCHorizon(opts.TombstoneGCHorizon, snapInterval)
	return newServer(store, dur, opts), stats, nil
}

func newServer(store *kv.Store, dur *kv.Durable, opts ServerOptions) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		store:     store,
		dur:       dur,
		syncApply: dur != nil && (opts.Fsync == "" || opts.Fsync == kv.FsyncAlways),
		sched:     newScheduler(opts.Discipline, opts.SchedShards),
		conns:     make(map[net.Conn]struct{}),
	}
	if opts.TombstoneGCHorizon > 0 {
		interval := opts.TombstoneGCInterval
		if interval <= 0 {
			interval = opts.TombstoneGCHorizon / 10
			if interval < time.Second {
				interval = time.Second
			}
		}
		s.gcStop = store.StartTombstoneGC(opts.TombstoneGCHorizon, interval)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i % opts.SchedShards)
	}
	return s
}

// SetTopology installs a topology if it is newer than the current one
// (a nil current accepts any), reporting whether it was installed. The
// wire Topo push goes through here too.
func (s *Server) SetTopology(t *cluster.ShardTopology) bool {
	for {
		cur := s.topo.Load()
		if cur != nil && (t == nil || t.Epoch() <= cur.Epoch()) {
			return false
		}
		if s.topo.CompareAndSwap(cur, t) {
			return true
		}
	}
}

// Topology returns the server's current topology (nil if none
// installed).
func (s *Server) Topology() *cluster.ShardTopology { return s.topo.Load() }

// TopologyEpoch returns the installed topology's epoch (0 if none).
func (s *Server) TopologyEpoch() uint64 {
	if t := s.topo.Load(); t != nil {
		return t.Epoch()
	}
	return 0
}

// Store exposes the underlying KV store (loaders use it in-process).
func (s *Server) Store() *kv.Store { return s.store }

// Serve accepts connections on ln until Close. It returns nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close the listener too: otherwise a Close/Serve race leaves
		// the kernel accepting connections nobody will ever read.
		_ = ln.Close()
		return errors.New("netstore: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Register under the lock that Close sets closed under: a
		// connection accepted as Close runs is either closed here or
		// registered (and counted in wg) before Close closes the
		// registered ones and waits.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (after Serve started).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes connections, and stops workers. On a
// durable server it then flushes the WAL and writes a final snapshot —
// the graceful-shutdown path, making the next boot's replay
// O(snapshot).
func (s *Server) Close() { s.shutdown(false) }

// Kill is the crash path: like Close it tears the network and workers
// down, but the durability layer is aborted — pending WAL buffers are
// dropped and no final snapshot is written, the in-process equivalent
// of SIGKILL. Crash-recovery tests use it to prove that acked writes
// survive on disk state alone.
func (s *Server) Kill() { s.shutdown(true) }

func (s *Server) shutdown(kill bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if s.gcStop != nil {
		s.gcStop()
	}
	s.sched.close()
	if s.opts.Fault != nil {
		// Workers may be parked at the injector's stall gate; they must
		// wake before the Wait below can finish.
		s.opts.Fault.shutdown()
	}
	if s.dur != nil && kill {
		// Abort before waiting: handlers blocked in a WAL append (e.g.
		// behind a stalled injected fsync) must fail out or the Wait
		// below deadlocks — exactly what a real kill does to them.
		s.dur.Abort()
	}
	s.wg.Wait()
	if s.dur != nil && !kill {
		if err := s.dur.Close(); err != nil {
			// Shutdown has no caller to hand the error to; count it so
			// a failed final snapshot/WAL close is visible in metrics.
			srvDurabilityErrors.Inc()
		}
	}
}

// QueueLen returns the current scheduler backlog.
func (s *Server) QueueLen() int { return s.sched.len() }

// connState couples one connection with its coalescing frame writer:
// concurrent workers finishing batches enqueue responses that ride a
// shared Write, instead of serializing one syscall each behind a mutex.
type connState struct {
	conn net.Conn
	w    *wire.ConnWriter
}

func newConnState(conn net.Conn) *connState {
	return &connState{conn: conn, w: wire.NewConnWriter(conn)}
}

// send queues one response frame. Batch responses take the vectored
// path: values the store handed out are immutable (a Set replaces the
// slice), so large ones ride the drain's writev burst as references
// instead of being copied into the coalescing buffer. By the time Send
// returns the frame METADATA is staged, so the batch state (and the
// request frame backing its keys) may recycle immediately — the value
// bytes themselves are pinned by the writer's ref slab until written.
func (cs *connState) send(m wire.Message) error {
	if br, ok := m.(*wire.BatchResp); ok {
		return cs.w.SendVectored(br)
	}
	return cs.w.Send(m)
}

// Read is the handler's read side, under its bufio.Reader: every socket
// Read first pushes the answers staged since the last one, so a run of
// pipelined requests that arrived together is answered with one Write
// and no answer waits for the client's next request.
func (cs *connState) Read(p []byte) (int, error) {
	if err := cs.w.Push(); err != nil {
		return 0, err
	}
	return cs.conn.Read(p)
}

// close tears the connection down first so the writer's in-flight Write
// cannot block the drain.
func (cs *connState) close() {
	_ = cs.conn.Close()
	_ = cs.w.Close()
}

// batchState assembles a batch's results as its keys finish service.
// States are pooled: the response's Values/Found slices, the work-item
// slab, and the request frame all recycle once the response is encoded.
type batchState struct {
	mu        sync.Mutex
	remaining int
	resp      wire.BatchResp
	enqueued  time.Time
	// deadline is the batch's service deadline, stamped at receipt from
	// the request's remaining Budget (zero = unbounded). Work items still
	// queued past it are shed, not serviced.
	deadline time.Time
	svcNanos int64
	cs       *connState
	// items is the batch's work-item slab: one allocation per batch
	// (reused across batches), not one per key.
	items []workItem
	// frame backs the aliased request keys; released on completion.
	frame *wire.Frame
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// newBatchState readies a pooled batchState for a decoded request whose
// keys alias frame. stray, when non-nil, marks keys the server refused
// for ownership: they are answered in place (found=false, stray=true)
// and never enqueued — only owned keys become work items. epoch is the
// server's topology epoch, piggybacked on the response.
func newBatchState(cs *connState, m *wire.BatchReq, frame *wire.Frame, stray []bool, epoch uint64) *batchState {
	n := len(m.Keys)
	bs := batchPool.Get().(*batchState)
	bs.enqueued = time.Now()
	// The budget is "nanoseconds the client had left at send": the
	// server assumes negligible transfer time and anchors the deadline
	// at receipt. Queue wait — the thing BRB actually bounds — happens
	// after this point, so the check at service pop is what matters.
	if m.Budget > 0 {
		bs.deadline = bs.enqueued.Add(time.Duration(m.Budget))
	} else {
		bs.deadline = time.Time{}
	}
	bs.svcNanos = 0
	bs.cs = cs
	bs.frame = frame
	values, found, versions := bs.resp.Values, bs.resp.Found, bs.resp.Versions
	if cap(values) < n {
		values, found, versions = make([][]byte, n), make([]bool, n), make([]uint64, n)
	} else {
		values, found, versions = values[:n], found[:n], versions[:n]
		for i := range values {
			values[i], found[i], versions[i] = nil, false, 0
		}
	}
	bs.resp = wire.BatchResp{Batch: m.Batch, Epoch: epoch, Values: values, Found: found, Versions: versions, Stray: stray}
	owned := n
	if stray != nil {
		for _, st := range stray {
			if st {
				owned--
			}
		}
	}
	bs.remaining = owned
	if cap(bs.items) < owned {
		bs.items = make([]workItem, owned)
	} else {
		bs.items = bs.items[:owned]
	}
	j := 0
	for i := range m.Keys {
		if stray != nil && stray[i] {
			continue
		}
		bs.items[j] = workItem{key: m.Keys[i], priority: m.Priority[i], index: i, batch: bs}
		j++
	}
	return bs
}

// release recycles the batch after its response has been encoded: store
// value references are dropped, the request frame returns to the frame
// pool, and the state itself to the batch pool. The Stray mask is not
// pooled (it is nil on the hot all-owned path, allocated only during
// topology skew).
func (bs *batchState) release() {
	for i := range bs.resp.Values {
		bs.resp.Values[i] = nil
	}
	bs.resp.Stray = nil
	bs.resp.Expired = nil
	bs.cs = nil
	bs.frame.Release()
	bs.frame = nil
	batchPool.Put(bs)
}

// workItem is one key awaiting service.
type workItem struct {
	key      string
	priority int64
	index    int // position within the batch
	batch    *batchState
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	cs := newConnState(conn)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		cs.close()
	}()
	// Answers the handler gives inline are staged, not sent: cs pushes
	// them before each socket Read, and the write paths push before an
	// apply that waits for an fsync, so an ack never waits on the socket
	// or on a later write's fsync. Batch responses come from workers and
	// keep their SendVectored path.
	r := bufio.NewReaderSize(cs, 64<<10)
	for {
		frame, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		msg, err := wire.DecodeAlias(frame.Bytes())
		if err != nil {
			frame.Release()
			return
		}
		switch m := msg.(type) {
		case *wire.Ping:
			frame.Release()
			if cs.w.Stage(&wire.Pong{Nonce: m.Nonce}) != nil {
				return
			}
		case *wire.Set:
			// Ownership gate first: with a topology installed, a key this
			// server does not own is rejected, not silently stored where
			// no reader will ever look for it.
			if owner, epoch, ok := s.ownsKey(m.Key, m.Epoch); !ok {
				if s.rejectWrite(cs, frame, m.Seq, owner, epoch) != nil {
					return
				}
				continue
			}
			if s.syncApply && cs.w.Push() != nil {
				frame.Release()
				return
			}
			// The store copies the value, but its map retains the key:
			// clone the key off the pooled frame before it recycles.
			// Version 0 is a local (loader) write that auto-advances the
			// key's version; a non-zero version is a replicated write
			// applied last-writer-wins, so hinted-handoff replays and
			// read-repair pushes are idempotent.
			if err := s.applySet(strings.Clone(m.Key), m.Value, m.Version); err != nil {
				// Durability failure: fail-stop the write path. No ack is
				// sent and the connection drops, so the client marks this
				// replica down and hints/reroutes the write — an acked
				// write is never one the WAL refused.
				srvDurabilityErrors.Inc()
				frame.Release()
				return
			}
			// Ownership is re-checked AFTER the apply: a topology install
			// landing between the check above and the store write could
			// otherwise let a migration's catch-up scan pass this key
			// before the write became visible — the donor would then ack
			// a write the new owner never receives. Post-apply, either
			// the install came later (the catch-up scan, which starts
			// after the push completes, sees the applied write) or this
			// recheck sees the new topology and converts the ack into
			// NotOwner, making the client re-route the same versioned
			// write to the real owner.
			if owner, epoch, ok := s.ownsKey(m.Key, m.Epoch); !ok {
				if s.rejectWrite(cs, frame, m.Seq, owner, epoch) != nil {
					return
				}
				continue
			}
			seq := m.Seq
			frame.Release()
			if cs.w.Stage(&wire.SetResp{Seq: seq}) != nil {
				return
			}
		case *wire.Del:
			if owner, epoch, ok := s.ownsKey(m.Key, m.Epoch); !ok {
				if s.rejectWrite(cs, frame, m.Seq, owner, epoch) != nil {
					return
				}
				continue
			}
			if s.syncApply && cs.w.Push() != nil {
				frame.Release()
				return
			}
			// DeleteVersion retains the key in its tombstone: clone it off
			// the pooled frame like Set does.
			if err := s.applyDelete(strings.Clone(m.Key), m.Version); err != nil {
				srvDurabilityErrors.Inc()
				frame.Release()
				return
			}
			// Post-apply ownership recheck, for the same catch-up-scan
			// race Set guards against above.
			if owner, epoch, ok := s.ownsKey(m.Key, m.Epoch); !ok {
				if s.rejectWrite(cs, frame, m.Seq, owner, epoch) != nil {
					return
				}
				continue
			}
			seq := m.Seq
			frame.Release()
			if cs.w.Stage(&wire.DelResp{Seq: seq}) != nil {
				return
			}
		case *wire.TopoGet:
			seq := m.Seq
			frame.Release()
			if cs.w.Stage(topoToWire(s.topo.Load(), seq)) != nil {
				return
			}
		case *wire.Topo:
			// A topology push: install if newer, answer with the current
			// one either way (the pusher's ack, and how lagging pushers
			// learn they lost).
			seq := m.Seq
			nt, err := topoFromWire(m)
			frame.Release()
			if err == nil && nt != nil {
				s.SetTopology(nt)
			}
			if cs.w.Stage(topoToWire(s.topo.Load(), seq)) != nil {
				return
			}
		case *wire.Scan:
			// m.After aliases the frame; scanStore only compares it, so
			// the frame is released after the scan, before the send.
			resp := s.scanStore(m.Seq, m.Cursor, m.After)
			frame.Release()
			if cs.w.Stage(resp) != nil {
				return
			}
		case *wire.BatchReq:
			// enqueueBatch owns the frame: the aliased keys live until
			// the batch completes.
			s.enqueueBatch(cs, m, frame)
		default:
			// Unknown-but-decodable messages are ignored; the protocol
			// is forward-compatible for clients, not servers.
			frame.Release()
		}
	}
}

// rejectWrite stages a NotOwner answer for a write this server does not
// own, releasing the write's frame.
func (s *Server) rejectWrite(cs *connState, frame *wire.Frame, seq uint64, owner int, epoch uint64) error {
	srvNotOwnerWrites.Inc()
	frame.Release()
	return cs.w.Stage(&wire.NotOwner{ID: seq, Epoch: epoch, Hint: uint32(owner)})
}

// applySet applies one write to the store and, on a durable server,
// logs it. ver 0 is a local auto-versioned write.
func (s *Server) applySet(key string, value []byte, ver uint64) error {
	if s.dur == nil {
		if ver == 0 {
			s.store.Set(key, value)
		} else {
			s.store.SetVersion(key, value, ver)
		}
		return nil
	}
	if ver == 0 {
		return s.dur.Set(key, value)
	}
	_, err := s.dur.SetVersion(key, value, ver)
	return err
}

// applyDelete applies one delete to the store and, on a durable server,
// logs it. ver 0 is a local delete-outright; non-zero lays a tombstone.
func (s *Server) applyDelete(key string, ver uint64) error {
	if s.dur == nil {
		if ver == 0 {
			s.store.Delete(key)
		} else {
			s.store.DeleteVersion(key, ver)
		}
		return nil
	}
	if ver == 0 {
		return s.dur.Delete(key)
	}
	_, err := s.dur.DeleteVersion(key, ver)
	return err
}

// Ownership-rejection counters: how often this process refused work for
// keys it does not own — sustained nonzero rates mean clients with
// stale topologies (normal for a moment after a rebalance, a
// misconfiguration if it persists).
var (
	srvNotOwnerWrites = metrics.GetCounter("netstore_server_notowner_writes_total")
	srvStrayKeys      = metrics.GetCounter("netstore_server_stray_keys_total")
	// srvStaleEpochBatches counts epoch-routed batches from clients whose
	// topology lags this server's — elevated briefly around every
	// rebalance, a misconfiguration signal if it persists.
	srvStaleEpochBatches = metrics.GetCounter("netstore_server_stale_epoch_batches_total")
	// srvExpiredDrops counts work items shed because their batch's
	// deadline budget ran out while they queued: service time the
	// deadline-propagation protocol saved from being wasted on answers
	// nobody was still waiting for.
	srvExpiredDrops = metrics.GetCounter("netstore_server_expired_drops_total")
	// srvDurabilityErrors counts writes refused because the WAL could
	// not make them durable (failed fsync, closed log): each one is a
	// dropped connection instead of a false ack.
	srvDurabilityErrors = metrics.GetCounter("netstore_server_durability_errors_total")
)

// ownsKey reports whether this server accepts a write for key under its
// current topology. Without CheckShard, or before any topology is
// installed, every key is owned (writes were never ownership-checked
// pre-topology, and flat deployments must keep working).
//
// writerEpoch is the topology epoch the writer routed under. A writer
// AHEAD of this server — the rebalancer streaming a migration before
// the epoch push, or a client that refreshed faster — is trusted: the
// write is versioned and last-writer-wins makes applying it safe, while
// rejecting it on stale local information would force migration to push
// topologies before data (re-opening a read-missing window on drained
// shards). Writers at or behind our epoch get the full per-key check.
// On rejection it returns the owning shard and the server's epoch for
// the NotOwner hint.
func (s *Server) ownsKey(key string, writerEpoch uint64) (owner int, epoch uint64, ok bool) {
	if !s.opts.CheckShard {
		return 0, 0, true
	}
	t := s.topo.Load()
	if t == nil {
		return 0, 0, true
	}
	epoch = t.Epoch()
	owner = t.ShardOfKey(key)
	if writerEpoch > epoch {
		return owner, epoch, true
	}
	if owner == s.opts.Shard {
		return owner, epoch, true
	}
	return owner, epoch, false
}

// maxScanPageBytes bounds one ScanResp's encoded payload so no page can
// approach wire.MaxFrame (16 MiB) no matter how large a kv shard grows;
// oversized shards split across pages via the After continuation key. A
// single entry always fits alone on a page (its value arrived in a
// ≤16 MiB Set frame, and the 4 MiB bound applies only from the second
// entry on). scanEntryOverhead accounts for the per-entry framing (key
// length, version, dead flag, value length) — without it, a page of
// millions of tiny entries would stay under a key+value-only budget
// while encoding past MaxFrame.
const (
	maxScanPageBytes  = 4 << 20
	scanEntryOverhead = 16
)

// scanStore answers one Scan page: entries (tombstones included) of
// internal store shard cursor with keys > after, in key order, up to
// maxScanPageBytes. NextCursor echoes the same cursor when the shard
// has more (continue with After = the page's last key), advances when
// it is exhausted, and is ScanDone after the last shard. Keys and
// values alias the store — safe because the store never mutates a
// stored value in place.
func (s *Server) scanStore(seq uint64, cursor uint32, after string) *wire.ScanResp {
	resp := &wire.ScanResp{Seq: seq, NextCursor: wire.ScanDone}
	n := s.store.NumShards()
	if int(cursor) >= n {
		return resp
	}
	// Partial selection, not a full collect-and-sort: the page retains
	// only the smallest keys that fit the byte budget (a max-heap evicts
	// the largest key whenever the budget overflows), so a page over a
	// huge shard costs O(K log P) and O(P) memory instead of re-sorting
	// all K remaining entries for every one of K/P pages.
	//
	// The page MUST be a prefix of the shard's key order or the After
	// continuation skips entries: once a key is evicted, no key at or
	// above it may be admitted later — without the bound, a small entry
	// arriving after larger evicted keys would slip back in, After would
	// jump past the evicted keys, and the next page would never see
	// them. Evictions pop the current max, so the bound only tightens.
	var page scanPageHeap
	pageBytes, evicted := 0, false
	bound, haveBound := "", false
	s.store.ScanShard(int(cursor), func(key string, val []byte, ver uint64, dead bool) bool {
		if after != "" && key <= after {
			return true
		}
		if haveBound && key >= bound {
			evicted = true
			return true
		}
		page.push(scanEnt{key: key, val: val, ver: ver, dead: dead})
		pageBytes += len(key) + len(val) + scanEntryOverhead
		for len(page) > 1 && pageBytes > maxScanPageBytes {
			e := page.pop()
			pageBytes -= len(e.key) + len(e.val) + scanEntryOverhead
			evicted = true
			bound, haveBound = e.key, true
		}
		return true
	})
	// Heapsort in place: popping the max into the shrinking tail leaves
	// ents in ascending key order.
	ents := []scanEnt(page)
	for m := len(page); m > 1; m = len(page) {
		ents[m-1] = page.pop()
	}
	for i := range ents {
		e := ents[i]
		resp.Keys = append(resp.Keys, e.key)
		resp.Versions = append(resp.Versions, e.ver)
		resp.Dead = append(resp.Dead, e.dead)
		if e.dead {
			resp.Values = append(resp.Values, nil)
		} else {
			resp.Values = append(resp.Values, e.val)
		}
	}
	switch {
	case evicted:
		resp.NextCursor = cursor // more in this shard; caller continues with After
	case int(cursor)+1 < n:
		resp.NextCursor = cursor + 1
	}
	return resp
}

// scanEnt is one store entry staged for a scan page.
type scanEnt struct {
	key  string
	val  []byte
	ver  uint64
	dead bool
}

// scanPageHeap is a max-heap on key (largest on top), hand-rolled like
// the scheduler's itemHeap so paging allocates nothing beyond the slice.
type scanPageHeap []scanEnt

func (h *scanPageHeap) push(e scanEnt) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[i].key <= s[parent].key {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *scanPageHeap) pop() scanEnt {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = scanEnt{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		max := i
		if l < n && s[l].key > s[max].key {
			max = l
		}
		if r < n && s[r].key > s[max].key {
			max = r
		}
		if max == i {
			break
		}
		s[i], s[max] = s[max], s[i]
		i = max
	}
	return top
}

// topoToWire encodes a topology (nil → the empty epoch-0 Topo).
func topoToWire(t *cluster.ShardTopology, seq uint64) *wire.Topo {
	tp := &wire.Topo{Seq: seq}
	if t == nil {
		return tp
	}
	tp.Epoch = t.Epoch()
	tp.Replicas = uint32(t.Replicas())
	tp.VNodes = uint32(t.VirtualNodes())
	for _, sa := range t.Assignments() {
		sh := wire.TopoShard{ID: uint32(sa.ID)}
		for i, sid := range sa.Servers {
			sh.Servers = append(sh.Servers, uint32(sid))
			if len(sa.Addrs) != 0 {
				sh.Addrs = append(sh.Addrs, sa.Addrs[i])
			} else {
				sh.Addrs = append(sh.Addrs, "")
			}
		}
		tp.Shards = append(tp.Shards, sh)
	}
	return tp
}

// topoFromWire decodes a wire Topo into a topology (nil for the empty
// epoch-0 form). Address strings are cloned: the server decodes pushed
// frames in aliasing mode (wire.DecodeAlias), and the assembled
// topology outlives the pooled frame by design — retaining aliased
// strings would corrupt every address the moment the frame recycles.
func topoFromWire(tp *wire.Topo) (*cluster.ShardTopology, error) {
	if tp.Epoch == 0 || len(tp.Shards) == 0 {
		return nil, nil
	}
	shards := make([]cluster.ShardAssignment, 0, len(tp.Shards))
	for _, sh := range tp.Shards {
		sa := cluster.ShardAssignment{ID: int(sh.ID)}
		for i, sid := range sh.Servers {
			sa.Servers = append(sa.Servers, int(sid))
			sa.Addrs = append(sa.Addrs, strings.Clone(sh.Addrs[i]))
		}
		shards = append(shards, sa)
	}
	return cluster.AssembleTopology(tp.Epoch, int(tp.Replicas), int(tp.VNodes), shards)
}

// enqueueBatch splits a batch into per-key work items. All items enter
// the scheduler before workers are woken, so priority decisions see the
// whole batch (the simultaneous-arrival semantics of Figure 1). The
// items are one slab owned by the batch's pooled state; m's keys alias
// frame, which is released when the batch completes.
//
// Shard validation has two tiers. Before a topology is installed, the
// whole batch is checked against the client's Shard header (the static
// pre-epoch behavior: configuration skew → FlagMisrouted). With a
// topology, ownership is checked per key against the ring — the server
// no longer trusts the client's routing — and keys owned elsewhere are
// answered as strays while the rest are served, so one moved key does
// not fail its whole batch mid-rebalance.
func (s *Server) enqueueBatch(cs *connState, m *wire.BatchReq, frame *wire.Frame) {
	var epoch uint64
	var stray []bool
	if s.opts.CheckShard {
		if t := s.topo.Load(); t != nil {
			epoch = t.Epoch()
			if m.Epoch != 0 && m.Epoch < epoch {
				srvStaleEpochBatches.Inc()
			}
			strays := 0
			for i, k := range m.Keys {
				if t.ShardOfKey(k) != s.opts.Shard {
					if stray == nil {
						stray = make([]bool, len(m.Keys))
					}
					stray[i] = true
					strays++
				}
			}
			if strays > 0 {
				srvStrayKeys.Add(uint64(strays))
			}
		} else if m.Shard != uint32(s.opts.Shard) {
			//brb:allow stickyerr response send on a sticky-errored conn is moot: the readLoop tears the conn down
			_ = cs.send(&wire.BatchResp{Batch: m.Batch, Flags: wire.FlagMisrouted})
			frame.Release()
			return
		}
	}
	if len(m.Keys) == 0 {
		//brb:allow stickyerr response send on a sticky-errored conn is moot: the readLoop tears the conn down
		_ = cs.send(&wire.BatchResp{Batch: m.Batch, Epoch: epoch})
		frame.Release()
		return
	}
	bs := newBatchState(cs, m, frame, stray, epoch)
	if bs.remaining == 0 {
		// Every key was a stray: nothing to schedule, answer now.
		//brb:allow stickyerr response send on a sticky-errored conn is moot: the readLoop tears the conn down
		_ = bs.cs.send(&bs.resp)
		bs.release()
		return
	}
	s.sched.pushAll(bs.items)
}

func (s *Server) worker(home int) {
	defer s.wg.Done()
	for {
		it, qlen, ok := s.sched.pop(home)
		if !ok {
			return
		}
		bs := it.batch
		// Expiry shed, checked at the pop — after the queue wait, before
		// any service work: a key whose deadline budget ran out while it
		// queued is answered with an Expired bit instead of a store read
		// plus service delay the caller has already stopped waiting for.
		if expired := !bs.deadline.IsZero() && time.Now().After(bs.deadline); expired {
			srvExpiredDrops.Inc()
			bs.mu.Lock()
			if bs.resp.Expired == nil {
				bs.resp.Expired = make([]bool, len(bs.resp.Values))
			}
			bs.resp.Expired[it.index] = true
			bs.remaining--
			done := bs.remaining == 0
			if done {
				bs.resp.QueueLen = uint32(qlen)
				bs.resp.WaitNanos = time.Since(bs.enqueued).Nanoseconds()
				bs.resp.ServiceNanos = bs.svcNanos
			}
			bs.mu.Unlock()
			if done {
				//brb:allow stickyerr response send on a sticky-errored conn is moot: the readLoop tears the conn down
				_ = bs.cs.send(&bs.resp)
				bs.release()
			}
			continue
		}
		svcStart := time.Now()
		if s.opts.Fault != nil {
			// Inside the measured service window, so injected latency
			// reaches clients as service time (a slow replica must look
			// slow to the C3 scorer and the hedge trigger).
			s.opts.Fault.beforeService()
		}
		v, ver, found := s.store.GetVersion(it.key)
		if s.opts.ServiceDelay != nil {
			time.Sleep(s.opts.ServiceDelay(int64(len(v))))
		}
		svc := time.Since(svcStart).Nanoseconds()
		s.served.Add(1)
		bs.mu.Lock()
		bs.resp.Values[it.index] = v
		bs.resp.Found[it.index] = found
		bs.resp.Versions[it.index] = ver
		bs.svcNanos += svc
		bs.remaining--
		done := bs.remaining == 0
		if done {
			bs.resp.QueueLen = uint32(qlen)
			bs.resp.WaitNanos = time.Since(bs.enqueued).Nanoseconds()
			bs.resp.ServiceNanos = bs.svcNanos
		}
		bs.mu.Unlock()
		if done {
			// Send encodes synchronously into the coalescing buffer, so
			// the state (and the frame backing its keys) recycles the
			// moment it returns.
			//brb:allow stickyerr response send on a sticky-errored conn is moot: the readLoop tears the conn down
			_ = bs.cs.send(&bs.resp)
			bs.release()
		}
	}
}

// String implements fmt.Stringer for Discipline.
func (d Discipline) String() string {
	switch d {
	case Priority:
		return "priority"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("Discipline(%d)", int(d))
}
