package netstore

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/c3"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/wire"
)

// ClusterOptions configure a sharded, replica-aware cluster client.
type ClusterOptions struct {
	// Topology is the epoch-versioned cluster layout: keys
	// consistent-hash to shard groups, each served by a fixed set of
	// replica servers, with a monotonic epoch that advances on
	// rebalances. Required. The client treats it as a starting point: it
	// refreshes to newer epochs from the servers whenever one rejects a
	// key as not-owned.
	Topology *cluster.ShardTopology
	// Assigner is the priority-assignment algorithm applied across the
	// whole multiget fan-out (default EqualMax).
	Assigner core.Assigner
	// CostModel forecasts per-key service cost from the value size
	// (default: 1 µs + 1 ns/byte).
	CostModel core.CostModel
	// DefaultSize is the assumed size for keys not yet seen. Default 1024.
	DefaultSize int64
	// Client identifies this client (telemetry and C3 pressure
	// extrapolation).
	Client int
	// Clients is the cluster-wide client count n for C3's pressure
	// extrapolation (default 1).
	Clients int
	// ServerWorkers is the per-server worker count m for C3's
	// concurrency compensation (default 4, the server default).
	ServerWorkers int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds any operation whose context carries no
	// deadline (default DefaultRequestTimeout; negative disables the
	// default, restoring wait-forever semantics for background-context
	// callers). Per-call ReadOptions/WriteOptions.Timeout and ctx
	// deadlines always apply on top — the earliest bound wins.
	RequestTimeout time.Duration
	// ProbeInterval is how often the revival prober pings down-marked
	// replicas (default 500ms; negative disables revival, restoring the
	// old fail-once-stay-down behavior).
	ProbeInterval time.Duration
	// MaxHintsPerReplica bounds the hinted-handoff buffer kept for each
	// down replica (latest write per key; default 4096 keys). Negative
	// disables hint buffering — a revived replica then converges only
	// through read-repair. Writes beyond the bound are dropped from the
	// buffer (read-repair covers them), never failed; each drop counts
	// in metrics ("netstore_hint_overflow_total") and HintOverflows.
	MaxHintsPerReplica int
	// CacheSize, when positive, enables the client's bounded versioned
	// hot-key cache with that many entries: recently read keys are
	// served locally, validated by write versions, and invalidated on
	// local writes/deletes, wire-version proof of staleness, and
	// topology epoch changes (see cache.go). 0 (default) disables it.
	CacheSize int
	// ConnsPerReplica is the number of parallel TCP connections the
	// client keeps to each replica (default 1). A single hot
	// client→replica link serializes every coalesced frame through one
	// socket's send buffer and one readLoop goroutine; extra conns
	// spread that load, with batches rotating round-robin across them.
	// Each conn runs its own readLoop and batch-ID space, so routing is
	// untouched; failover semantics are per-replica — any conn's
	// transport failure downs the replica and tears down its siblings
	// (the failure mode is the process, not the socket), and the
	// revival prober redials the full set before re-admitting it.
	ConnsPerReplica int

	// hedgeTimer overrides the hedge-trigger timer (test hook): it
	// returns a channel that fires after d plus an idempotent stop
	// function. nil uses time.NewTimer.
	hedgeTimer func(d time.Duration) (<-chan time.Time, func())
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Assigner == nil {
		o.Assigner = core.EqualMax{}
	}
	if o.CostModel == (core.CostModel{}) {
		o.CostModel = core.CostModel{BaseNanos: 1000, PerBytePico: 1000}
	}
	if o.DefaultSize <= 0 {
		o.DefaultSize = 1024
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.ConnsPerReplica <= 0 {
		o.ConnsPerReplica = 1
	}
	if o.ServerWorkers <= 0 {
		o.ServerWorkers = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.MaxHintsPerReplica == 0 {
		o.MaxHintsPerReplica = 4096
	}
	return o
}

// maxEpochHops bounds how many topology refreshes a single operation
// will chase: during a rebalance each hop crosses one epoch, and
// rebalances do not stack faster than a client can follow, so running
// out means the cluster and client genuinely disagree.
const maxEpochHops = 4

// Cluster-client counters (process-wide; see internal/metrics).
var (
	hintOverflowsTotal = metrics.GetCounter("netstore_hint_overflow_total")
	topoRefreshesTotal = metrics.GetCounter("netstore_topology_refresh_total")
	strayRetriesTotal  = metrics.GetCounter("netstore_stray_key_retries_total")
)

// multigetLatencyNS is the process-wide multiget completion-time
// histogram (registered; see metrics.GetHistogram): every Cluster
// Multiget records its issue→last-response latency here, cache-only
// hits included, so operational tooling can read p50/p99/p999 without
// owning the call sites. Recording is a handful of atomic adds — no
// allocation, hot-path safe.
var multigetLatencyNS = metrics.GetHistogram("netstore_multiget_latency_ns")

// serverSlot is one server's client-side state: its live connections
// (swapped atomically by the revival prober), the down mark, and the
// hinted-handoff buffer. Slots are keyed by stable server ID and
// SHARED between topology states, so hints and down-marks survive a
// topology refresh.
type serverSlot struct {
	id   int
	addr string
	// conns holds ClusterOptions.ConnsPerReplica parallel connections.
	// Liveness is per-replica, not per-conn: all entries are live or
	// the slot is down — any conn's transport failure tears the whole
	// set down (markDown) and the prober redials the full set before
	// clearing the down mark (tryRevive).
	conns []atomic.Pointer[serverConn]
	// rr rotates batch traffic across conns (pick).
	rr   atomic.Uint32
	down atomic.Bool
	// hints buffers writes this server missed while down, for replay
	// when the prober revives it.
	hints hintBuffer
}

func newServerSlot(id int, addr string, conns int) *serverSlot {
	if conns < 1 {
		conns = 1
	}
	return &serverSlot{id: id, addr: addr, conns: make([]atomic.Pointer[serverConn], conns)}
}

// pick returns a live connection for new batch traffic, rotating
// round-robin across the slot's parallel connections (nil when none —
// the slot is down or being torn down). With one conn it is the plain
// load it always was.
func (s *serverSlot) pick() *serverConn {
	n := uint32(len(s.conns))
	if n == 1 {
		return s.conns[0].Load()
	}
	start := s.rr.Add(1)
	for i := uint32(0); i < n; i++ {
		if sc := s.conns[(start+i)%n].Load(); sc != nil {
			return sc
		}
	}
	return nil
}

// primary returns the slot's first connection (nil when down): the
// stable choice for control-plane traffic — topology polls, hint
// replay, repair pushes — which stays off the batch rotation.
func (s *serverSlot) primary() *serverConn { return s.conns[0].Load() }

// closeAll swaps every connection out and closes it.
func (s *serverSlot) closeAll() {
	for i := range s.conns {
		if sc := s.conns[i].Swap(nil); sc != nil {
			sc.close()
		}
	}
}

// topoState is one epoch's immutable view of the cluster: the topology
// plus per-server slots and per-shard scorers. Operations load the
// current state once and work against it; a concurrent refresh installs
// a new state without disturbing them (slots are shared by ID).
type topoState struct {
	topo *cluster.ShardTopology
	// slots maps stable server IDs to their client-side state.
	slots map[int]*serverSlot
	// scorers[shardID] ranks that shard's replicas from piggybacked
	// feedback; carried over across epochs for surviving shards.
	scorers map[int]*c3.Scorer
}

func (st *topoState) slotOf(shard, replica int) *serverSlot {
	return st.slots[st.topo.Server(shard, replica)]
}

// Cluster is the sharded, replica-aware client of the networked store:
// keys consistent-hash across shard groups, a multiget decomposes into
// one BRB sub-task per shard with task-aware priorities preserved
// end-to-end, each sub-task picks its replica by C3 score, and batches
// scatter-gather with failover to the next-ranked replica when one dies.
//
// Routing is epoch-versioned: the client caches a cluster.ShardTopology
// and servers validate ownership per key against their own. When a
// rebalance moves keys, stale clients see stray rejections (reads) or
// NotOwner (writes), refresh their topology from the servers, and retry
// exactly the misrouted keys under the new epoch — a multiget can span
// epochs mid-flight without failing.
//
// The replica set self-heals: a replica that fails a read or write is
// marked down (never permanently blacklisted), a background prober
// redials it and verifies liveness with a Ping/Pong exchange, writes
// missed while down are buffered as hints and replayed on revival, and
// reads that reveal a replica serving versions older than this client
// last wrote trigger read-repair pushes. See revive.go.
type Cluster struct {
	opts ClusterOptions

	// state is the current topology epoch's view, swapped atomically on
	// refresh. topoMu guards installs (and Close's slot sweep) — held
	// only across in-memory swaps plus the bounded dials of newly joined
	// servers. refreshMu single-flights the slower server poll, so the
	// poll's network I/O never blocks Close or an in-process install.
	state     atomic.Pointer[topoState]
	topoMu    sync.Mutex
	refreshMu sync.Mutex

	// sizes caches learned value sizes for cost forecasting.
	sizes sync.Map // string -> int64

	// written records the version this client last wrote per key; batch
	// responses carrying older versions reveal stale replicas. Like
	// sizes, it grows one entry per distinct key this client ever
	// writes — acceptable for the cache-tier keyspaces the client
	// targets; a churning-keyspace writer would want an eviction bound
	// here (read-repair triggering is best-effort anyway).
	written sync.Map // string -> uint64

	// versions stamps writes; servers apply them last-writer-wins.
	versions versionClock

	// cache is the bounded versioned hot-key cache (nil unless
	// ClusterOptions.CacheSize enables it; see cache.go).
	cache *hotKeyCache

	// credits are granted by the controller (nil without one).
	credits *creditGate

	taskSeq atomic.Uint64

	// rootCtx scopes every background goroutine this client owns — the
	// revival prober, hint replay, read-repair pushes — and is cancelled
	// by Close, so background I/O observes shutdown the same way
	// foreground operations observe their callers' contexts.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// Revival/repair machinery (revive.go). repairMu orders
	// scheduleRepair's closed-check+Add against Close's Wait.
	probeWG       sync.WaitGroup
	repairMu      sync.Mutex
	repairWG      sync.WaitGroup
	repairSem     chan struct{}
	repairing     sync.Map // string -> struct{}: keys with an in-flight repair
	revivals      atomic.Uint64
	refreshes     atomic.Uint64
	hintOverflows atomic.Uint64
	// Hedged-read telemetry (hedge.go): extra attempts issued, races
	// won by a hedge, hedges that lost or died.
	hedgesFired  atomic.Uint64
	hedgesWon    atomic.Uint64
	hedgesWasted atomic.Uint64
	// epochLag is set when a batch response reveals a server running a
	// newer epoch than ours without rejecting anything; the prober's
	// next tick refreshes proactively instead of waiting for a stray.
	epochLag atomic.Bool
	closed   atomic.Bool
}

// AttachController connects the cluster client to a credits controller
// (run `brb-controller -shards S -replicas R` so grants cover the dense
// shard·R+replica server space): demand reports flow every interval, and
// replica selection prefers positive-balance replicas before falling back
// to pure C3 ranking — credits steer placement across shards the same way
// they steer it across a flat tier. Grants cover the server-ID space of
// the topology at attach time; servers added by later rebalances run
// uncredited until re-attach.
func (c *Cluster) AttachController(addr string, interval time.Duration) error {
	st := c.state.Load()
	g, err := dialCreditGate(addr, st.topo.NumServers(), c.opts.Client, c.opts.DialTimeout, interval)
	if err != nil {
		return err
	}
	c.credits = g
	return nil
}

// ErrNoReplica is returned when every replica of a shard is down.
var ErrNoReplica = errors.New("netstore: no live replica for shard")

// ErrTopologySkew is returned when an operation ran out of epoch hops:
// servers kept rejecting keys as not-owned faster than the client could
// refresh — a sign the cluster's topology push never completed.
var ErrTopologySkew = errors.New("netstore: topology skew not resolved after refresh")

// DialCluster connects to every server of the cluster. addrs, when
// non-nil, binds dial addresses to the topology's servers in dense
// order (replica r of shard s at index s·R+r — the order `cmd/brb-server
// -shard s -group-listen …` launches them); a nil addrs requires the
// topology to carry addresses already (cluster.ShardTopology.WithAddrs
// or a fetched topology).
func DialCluster(addrs []string, opts ClusterOptions) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.Topology == nil {
		return nil, errors.New("netstore: ClusterOptions.Topology is required")
	}
	topo := opts.Topology
	if len(addrs) != 0 {
		bound, err := topo.WithAddrs(addrs)
		if err != nil {
			return nil, fmt.Errorf("netstore: %v (%d shards × %d replicas)", err, topo.Shards(), topo.Replicas())
		}
		topo = bound
	}
	for _, sid := range topo.Servers() {
		if topo.Addr(sid) == "" {
			return nil, fmt.Errorf("netstore: topology has no address for server %d (pass addrs or use WithAddrs)", sid)
		}
	}
	c := &Cluster{
		opts:      opts,
		repairSem: make(chan struct{}, maxConcurrentRepairs),
	}
	if opts.CacheSize > 0 {
		c.cache = newHotKeyCache(opts.CacheSize)
	}
	//brb:allow ctxfirst the cluster root context is cancelled by Close, not inherited from a caller
	c.rootCtx, c.rootCancel = context.WithCancel(context.Background())
	st := &topoState{
		topo:    topo,
		slots:   make(map[int]*serverSlot, topo.NumServers()),
		scorers: make(map[int]*c3.Scorer, topo.Shards()),
	}
	for _, sh := range topo.ShardIDs() {
		st.scorers[sh] = c.newScorer(topo.Replicas())
	}
	// Unreachable replicas start marked down rather than failing the
	// dial — the client tolerates dead replicas at connect time the same
	// way it tolerates them mid-run (the prober revives them once they
	// come back) — but every shard needs at least one live replica to be
	// servable.
	var lastErr error
	for _, sid := range topo.Servers() {
		slot := newServerSlot(sid, topo.Addr(sid), opts.ConnsPerReplica)
		if err := c.dialSlot(slot); err != nil {
			slot.down.Store(true)
			lastErr = fmt.Errorf("netstore: dial %s: %w", slot.addr, err)
		}
		st.slots[sid] = slot
	}
	c.state.Store(st)
	for _, sh := range topo.ShardIDs() {
		alive := false
		for r := 0; r < topo.Replicas(); r++ {
			if !st.slotOf(sh, r).down.Load() {
				alive = true
				break
			}
		}
		if !alive {
			c.Close()
			return nil, fmt.Errorf("%w %d: %v", ErrNoReplica, sh, lastErr)
		}
	}
	if opts.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// newScorer sizes a shard's scorer for the replica count of the
// topology it will serve under — NOT opts.Topology's: a refresh can
// install a fetched topology whose replication differs from the one
// the client was configured with (a misconfigured -replication flag),
// and a scorer ranging over the wrong replica count walks off the
// replica arrays.
func (c *Cluster) newScorer(replicas int) *c3.Scorer {
	return c3.NewScorer(replicas, c3.ScorerOptions{
		Clients:     float64(c.opts.Clients),
		Concurrency: float64(c.opts.ServerWorkers),
	})
}

// dialSlot dials every parallel connection for slot and publishes them
// all-or-nothing: a replica is either fully connected or left for the
// prober. Partial sets are closed and the error returned — admitting a
// half-connected replica would make pick()'s rotation lopsided and hide
// a connectivity problem the down-mark machinery exists to surface.
func (c *Cluster) dialSlot(slot *serverSlot) error {
	scs := make([]*serverConn, len(slot.conns))
	for i := range slot.conns {
		conn, err := net.DialTimeout("tcp", slot.addr, c.opts.DialTimeout)
		if err != nil {
			for _, sc := range scs[:i] {
				sc.close()
			}
			return err
		}
		scs[i] = newServerConn(conn)
	}
	for i, sc := range scs {
		slot.conns[i].Store(sc)
	}
	return nil
}

// markDown records a transport failure at a server: the connection the
// caller observed failing is torn down and the server skipped until the
// prober revives it. Never a permanent blacklist — recording the
// failure is exactly what arms the probe loop. The compare-and-swap on
// the connection identity makes stragglers harmless: an operation that
// started on the pre-crash connection and fails after the prober has
// already swapped in a fresh one must not tear the revived replica back
// down.
func (c *Cluster) markDown(slot *serverSlot, failed *serverConn) {
	for i := range slot.conns {
		if !slot.conns[i].CompareAndSwap(failed, nil) {
			continue
		}
		slot.down.Store(true)
		failed.close()
		// One conn's transport failure downs the whole replica: the
		// failure mode is the process/host behind the address, not one
		// socket, and liveness/hints/failover are all per-replica. Tear
		// the sibling conns down too so no batch keeps riding a
		// connection to a server already judged dead — the prober
		// redials the full set on revival.
		for j := range slot.conns {
			if j != i {
				if sc := slot.conns[j].Swap(nil); sc != nil {
					sc.close()
				}
			}
		}
		return
	}
}

// Close tears down all connections and stops the prober and any
// in-flight repairs.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	// Cancelling the root context stops the prober and unblocks every
	// background wait (hint replay, repair pushes) at its next select.
	c.rootCancel()
	c.probeWG.Wait()
	// Barrier: a scheduleRepair that passed its closed check before our
	// CAS finishes its repairWG.Add while holding repairMu; any later
	// one sees closed and bails. After this, the Wait below races no Add.
	c.repairMu.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier
	c.repairMu.Unlock()
	// The slot sweep runs under topoMu so it cannot race an in-flight
	// installLocked: an install finishing before us publishes its state
	// (whose slots we sweep), and one arriving after sees closed and
	// no-ops — either way no freshly dialed connection escapes.
	c.topoMu.Lock()
	st := c.state.Load()
	for _, slot := range st.slots {
		slot.closeAll()
	}
	c.topoMu.Unlock()
	// Repair goroutines unblock once their connections die.
	c.repairWG.Wait()
	if c.credits != nil {
		c.credits.close()
	}
}

// refreshTopology polls the cluster for a topology newer than prev's
// and installs it, returning the freshest state (prev's if nothing
// newer surfaced). Single-flight under refreshMu — concurrent
// stray-hit operations share one poll — while topoMu is taken only for
// the final install, so the poll's per-server timeouts never stall
// Close or InstallTopology. The wait is ctx-bounded: a deadline-bound
// operation abandons the poll at its deadline and proceeds with the
// best state currently installed (the poll goroutines park their late
// answers in the buffered channel and exit on their own), so a refresh
// can never hold a caller past its budget.
func (c *Cluster) refreshTopology(ctx context.Context, prev *topoState) *topoState {
	if st := c.state.Load(); st.topo.Epoch() > prev.topo.Epoch() {
		return st
	}
	if ctx.Err() != nil {
		return c.state.Load()
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	st := c.state.Load()
	if st.topo.Epoch() > prev.topo.Epoch() {
		// Someone refreshed while we waited for the lock.
		return st
	}
	// Poll every live server concurrently: polled serially, one wedged
	// server (TCP alive, process stalled) would cost a full topoGet
	// timeout before the poll even reached a server that knows the
	// newer epoch, stalling every stray-hit operation behind refreshMu.
	// In parallel the refresh completes as soon as the first newer
	// answer lands; stragglers time out into the buffered channel and
	// their goroutines exit on their own.
	var live []*serverConn
	for _, sid := range st.topo.Servers() {
		slot := st.slots[sid]
		if sc := slot.primary(); sc != nil && !slot.down.Load() {
			live = append(live, sc)
		}
	}
	results := make(chan *cluster.ShardTopology, len(live))
	for _, sc := range live {
		go func(sc *serverConn) {
			tp, err := sc.topoGet(c.opts.DialTimeout)
			if err != nil {
				results <- nil
				return
			}
			nt, err := topoFromWire(tp)
			if err != nil {
				results <- nil
				return
			}
			results <- nt
		}(sc)
	}
	var best *cluster.ShardTopology
	for range live {
		var nt *cluster.ShardTopology
		select {
		case nt = <-results:
		case <-ctx.Done():
			// The caller's budget ran out mid-poll: hand back whatever is
			// installed now; the straggling pollers drain into the
			// buffered channel and exit unobserved.
			return c.state.Load()
		}
		if nt == nil {
			continue
		}
		if best == nil || nt.Epoch() > best.Epoch() {
			best = nt
		}
		if best.Epoch() > st.topo.Epoch() {
			// One newer answer is enough; rebalances are serialized, so
			// the first newer epoch seen is the newest there is.
			break
		}
	}
	if best == nil || best.Epoch() < st.topo.Epoch() {
		return st
	}
	// A same-epoch topology that differs from ours is adopted too: this
	// poll only runs on rejection evidence, and a rejecting server that
	// is not AHEAD of us must be on another lineage entirely — the
	// client was configured with a layout the cluster never had, and
	// the servers are authoritative.
	if best.Epoch() == st.topo.Epoch() && best.Equal(st.topo) {
		return st
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	// Re-validate against the state as it stands now that the poll is
	// done (an InstallTopology may have landed meanwhile).
	cur := c.state.Load()
	if best.Epoch() < cur.topo.Epoch() ||
		(best.Epoch() == cur.topo.Epoch() && best.Equal(cur.topo)) {
		return cur
	}
	return c.installLocked(cur, best)
}

// InstallTopology hands the client a newer topology directly (the
// in-process path used by orchestration tooling; remote clients learn
// through refreshTopology). Older or equal epochs are ignored.
func (c *Cluster) InstallTopology(nt *cluster.ShardTopology) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	st := c.state.Load()
	if nt == nil || nt.Epoch() <= st.topo.Epoch() {
		return
	}
	c.installLocked(st, nt)
}

// installLocked (topoMu held) builds the new epoch's state: slots are
// reused by server ID so connections, down-marks and buffered hints
// survive; servers joining the topology are dialed; servers leaving it
// forward their buffered hints to the keys' new owners and are closed
// after the swap.
func (c *Cluster) installLocked(st *topoState, nt *cluster.ShardTopology) *topoState {
	if c.closed.Load() {
		// Close is (or has been) sweeping connections under this same
		// lock; dialing new ones now would leak them.
		return st
	}
	ns := &topoState{
		topo:    nt,
		slots:   make(map[int]*serverSlot, nt.NumServers()),
		scorers: make(map[int]*c3.Scorer, nt.Shards()),
	}
	for _, sid := range nt.Servers() {
		if slot := st.slots[sid]; slot != nil {
			ns.slots[sid] = slot
			continue
		}
		slot := newServerSlot(sid, nt.Addr(sid), c.opts.ConnsPerReplica)
		if err := c.dialSlot(slot); err != nil {
			// Down from birth; the prober takes it from here.
			slot.down.Store(true)
		}
		ns.slots[sid] = slot
	}
	for _, sh := range nt.ShardIDs() {
		if sc := st.scorers[sh]; sc != nil && sc.Replicas() == nt.Replicas() {
			ns.scorers[sh] = sc
		} else {
			ns.scorers[sh] = c.newScorer(nt.Replicas())
		}
	}
	c.state.Store(ns)
	if c.cache != nil {
		// Ownership moved with the epoch: every cached entry's
		// provenance is void, so the cache restarts empty.
		c.cache.purge()
	}
	// Retired servers: their hint buffers may hold the only surviving
	// copy of acknowledged writes (a donor replica that died before the
	// migration scan), and the prober only walks the new topology's
	// servers — forward every hint to its key's new owner slots before
	// the retired slot becomes unreachable, then close the connection
	// (in-flight operations on the old state fail over or error like
	// any transport loss). The forwarded hints drain on the prober's
	// next flushHints/revival pass, versioned and idempotent as ever.
	for sid, slot := range st.slots {
		if ns.slots[sid] != nil {
			continue
		}
		slot.hints.mu.Lock()
		orphaned := slot.hints.hints
		slot.hints.hints = nil
		slot.hints.mu.Unlock()
		for key, h := range orphaned {
			owner := nt.ShardOfKey(key)
			for _, osid := range nt.ReplicaServers(owner) {
				c.addHint(ns.slots[osid], key, h.value, h.version, h.del)
			}
		}
		slot.closeAll()
	}
	c.refreshes.Add(1)
	topoRefreshesTotal.Inc()
	return ns
}

// Set writes a key to every replica of its shard in parallel, stamped
// with one version so replicas are comparable. A replica that is down or
// fails the write gets the write buffered as a hint for replay on
// revival (and is marked down, arming the prober — not permanently
// blacklisted). A NotOwner rejection (the shard moved) triggers a
// topology refresh and a re-route of the same versioned write. Set
// returns an error only when no replica accepted the write;
// short-of-full-replication writes heal via hinted handoff and
// read-repair once the missing replicas revive.
//
// The wait is bounded by ctx, opts.Timeout, and the client's
// RequestTimeout (earliest wins). WriteAll (default) waits for every
// live replica's ack; WriteAny returns after the first while the rest
// of the fan-out completes in the background. A replica whose wait the
// deadline cut short is NOT marked down — the caller gave up, the
// replica may be fine — but the write is hint-buffered for it, so
// convergence still heals the gap if a sibling acked.
func (c *Cluster) Set(ctx context.Context, key string, value []byte, opts WriteOptions) error {
	return c.write(ctx, key, value, false, opts)
}

// Delete removes a key from every replica of its shard (versioned
// tombstones, so replayed older writes cannot resurrect it) and drops
// the key's learned size, so later cost forecasts fall back to
// DefaultSize instead of the stale size of a value that no longer
// exists. Like Set, it errors only when no replica accepted it, and its
// deadline/fan-out semantics match Set's.
func (c *Cluster) Delete(ctx context.Context, key string, opts WriteOptions) error {
	return c.write(ctx, key, nil, true, opts)
}

func (c *Cluster) write(ctx context.Context, key string, value []byte, del bool, opts WriteOptions) (err error) {
	defer func() { countCtxErr(err) }()
	ctx, cancel := requestContext(ctx, opts.Timeout, c.opts.RequestTimeout)
	detached := false
	defer func() {
		if !detached {
			cancel()
		}
	}()
	op := &writeOp{key: key, value: value, ver: c.versions.next(), del: del}
	st := c.state.Load()
	for hop := 0; hop < maxEpochHops; hop++ {
		a := c.startWriteAttempt(ctx, st, op)
		for a.fan.left > 0 {
			if v := a.await(ctx); v.err == nil && opts.Fanout == WriteAny {
				// First ack wins. The remaining fan-out keeps running —
				// the ctx is handed to a drainer that releases it only
				// once every verdict is in, so returning here does not
				// cancel the stragglers.
				detached = true
				go a.drain(ctx, cancel)
				c.writeAcked(op)
				return nil
			}
		}
		if a.notOwner > 0 {
			// Even when other replicas acked (the write succeeds below),
			// the rejection proves a newer epoch exists: arm the prober's
			// proactive refresh so later writes stop bouncing off
			// already-pushed donors.
			c.epochLag.Store(true)
		}
		if a.wrote > 0 {
			c.writeAcked(op)
			if a.notOwner > 0 {
				// Mixed verdict: stale donors acked (the write succeeds),
				// already-pushed replicas rejected. The rejecting replicas
				// will never hold this write, and if the acking donors die
				// before the migration's catch-up scan, theirs could be
				// the only copies — top up redundancy by buffering the
				// same versioned write for the key's owners under the
				// freshest topology; the prober's flush delivers it,
				// idempotently.
				c.topUpOwners(ctx, st, op)
			}
			return nil
		}
		// No replica accepted: whatever this attempt hinted must not
		// materialize later without an acknowledgment backing it.
		for _, slot := range a.hinted {
			c.removeHint(slot, key, op.ver)
		}
		if ctx.Err() != nil {
			// The deadline (or the caller) ended the write before any
			// replica could ack: surface the cause, not ErrNoReplica.
			return ctxErr(ctx, fmt.Sprintf("write %q", key))
		}
		if a.notOwner > 0 || c.state.Load() != st {
			// The shard moved under us — either a replica said so
			// (NotOwner) or a concurrent refresh replaced the state we
			// fanned out against (closing a drained shard's connections
			// mid-write). Refresh and re-route the same versioned write.
			st = c.refreshTopology(ctx, st)
			continue
		}
		return fmt.Errorf("%w %d (write %q)", ErrNoReplica, a.shard, key)
	}
	return fmt.Errorf("%w (write %q)", ErrTopologySkew, key)
}

// writeAttempt is one epoch hop of a Cluster write: the fan-out to the
// key's shard under one topology state, and the tally of its replicas'
// verdicts. The caller's goroutine sends every replica's frame and
// collects the verdicts; after a WriteAny returns, the drainer
// goroutine takes the attempt over.
type writeAttempt struct {
	c     *Cluster
	st    *topoState
	shard int
	op    writeOp
	fan   ackFan
	// wrote and notOwner count acks and NotOwner rejections.
	wrote, notOwner int
	// hinted holds the slots this attempt buffered a hint for.
	hinted []*serverSlot
}

// startWriteAttempt sends op to every live replica of its shard under
// st. A replica that is down (or has no connection) gets the write
// buffered as a hint for replay on revival instead.
func (c *Cluster) startWriteAttempt(ctx context.Context, st *topoState, op *writeOp) *writeAttempt {
	shard := st.topo.ShardOfKey(op.key)
	rt := writeRoute{shard: shard, epoch: st.topo.Epoch()}
	reps := st.topo.Replicas()
	a := &writeAttempt{c: c, st: st, shard: shard, op: *op, fan: newAckFan(reps)}
	for r := 0; r < reps; r++ {
		slot := st.slotOf(shard, r)
		sc := slot.pick()
		if slot.down.Load() || sc == nil {
			c.addHint(slot, op.key, op.value, op.ver, op.del)
			a.hinted = append(a.hinted, slot)
			continue
		}
		a.fan.start(ctx, r, sc, &a.op, rt)
	}
	return a
}

// await takes the attempt's next replica verdict and acts on it.
func (a *writeAttempt) await(ctx context.Context) ackVerdict {
	v := a.fan.next(ctx, a.op.what())
	switch {
	case v.err == nil:
		a.wrote++
	case errors.As(v.err, new(*NotOwnerError)):
		// The server's (newer) topology places the key elsewhere: no
		// hint — this replica will never own it.
		a.notOwner++
	default:
		// Hint before marking down so a racing revival can only replay
		// the hint, never miss it.
		slot := a.st.slotOf(a.shard, v.idx)
		a.c.addHint(slot, a.op.key, a.op.value, a.op.ver, a.op.del)
		a.hinted = append(a.hinted, slot)
		// A wait the caller's deadline or cancellation cut short says
		// nothing about the replica — it may be healthy and may even
		// have applied the write (the hint is versioned, so a duplicate
		// replay is a no-op) — so only a transport failure marks it down.
		if ctx.Err() == nil {
			a.c.markDown(slot, a.fan.waits[v.idx].sc)
		}
	}
	return v
}

// drain finishes a WriteAny's fan-out after the caller returned at its
// first ack, then releases the write's ctx. Stragglers get the same
// hinting and down-marking as foreground verdicts. NotOwner verdicts —
// from before the early return or after it — prove a newer epoch
// exists and get the epoch-lag arming and redundancy top-up the
// WriteAll path performs, under the client's root ctx: background
// healing is scoped to the client's lifetime, not this caller's
// deadline.
func (a *writeAttempt) drain(ctx context.Context, cancel context.CancelFunc) {
	for a.fan.left > 0 {
		a.await(ctx)
	}
	if a.notOwner > 0 {
		a.c.epochLag.Store(true)
		a.c.topUpOwners(a.c.rootCtx, a.st, &a.op)
	}
	cancel()
}

// writeAcked records an acknowledged write on the client side. The
// floor first, the invalidation second: a concurrent cache fill racing
// this write either lands before the invalidation (dropped by it) or
// after (dropped at serve time by the raised floor) — there is no
// interleaving that leaves a pre-write value servable once this ack
// returns.
func (c *Cluster) writeAcked(op *writeOp) {
	c.raiseWritten(op.key, op.ver)
	if c.cache != nil {
		c.cache.invalidate(op.key)
	}
	if op.del {
		c.sizes.Delete(op.key)
	} else {
		learnSize(&c.sizes, op.key, int64(len(op.value)))
	}
}

// topUpOwners buffers one versioned write as hints for the key's
// replica set under the freshest topology it can learn — the
// mixed-verdict redundancy top-up shared by the WriteAll path and
// WriteAny's background drainer. The prober's flush delivers the
// hints, idempotently.
func (c *Cluster) topUpOwners(ctx context.Context, st *topoState, op *writeOp) {
	if nst := c.refreshTopology(ctx, st); nst != st {
		nshard := nst.topo.ShardOfKey(op.key)
		for _, sid := range nst.topo.ReplicaServers(nshard) {
			c.addHint(nst.slots[sid], op.key, op.value, op.ver, op.del)
		}
	}
}

// raiseWritten raises the client's written-version floor for a key,
// never lowering it: two concurrent Sets acking out of order must leave
// the floor at the NEWER version, or the hot-key cache could serve the
// older write after the newer one was acknowledged (the floor is what
// cacheServe checks) and read-repair would chase the wrong target.
func (c *Cluster) raiseWritten(key string, ver uint64) {
	for {
		cur, ok := c.written.Load(key)
		if ok {
			if cur.(uint64) >= ver {
				return
			}
			if c.written.CompareAndSwap(key, cur, ver) {
				return
			}
		} else if _, loaded := c.written.LoadOrStore(key, ver); !loaded {
			return
		}
	}
}

// WrittenVersion returns the highest version this client has had
// acknowledged for key (false if it never wrote it). Crash-recovery
// harnesses use it as the ground truth for "acked": a restarted replica
// must serve every key at at least this version.
func (c *Cluster) WrittenVersion(key string) (uint64, bool) {
	v, ok := c.written.Load(key)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// Get reads a single key through the batched pipeline (found=false for
// missing keys, never an error).
func (c *Cluster) Get(ctx context.Context, key string, opts ReadOptions) ([]byte, bool, error) {
	res, err := c.Multiget(ctx, []string{key}, opts)
	if err != nil {
		return nil, false, err
	}
	return res.Values[0], res.Found[0], nil
}

// Multiget performs one batched read across the cluster: the full BRB
// pipeline (forecast → decompose per shard → prioritize → C3 replica
// selection → scatter-gather), with failover to the next-ranked replica
// on transport errors and per-key re-routing across topology epochs
// when a rebalance moves keys mid-flight. On error the partial
// TaskResult is still returned — shards that answered have their
// Values/Found filled — with all per-shard errors joined
// (errors.Is(err, ErrNoReplica) matches a shard whose whole replica set
// was down).
//
// The wait is bounded by ctx, opts.Timeout, and the client's
// RequestTimeout (earliest wins): against a stalled replica the call
// returns within the deadline with the in-deadline shards' partial
// results and an error wrapping context.DeadlineExceeded. The remaining
// budget rides each sub-batch on the wire, so servers shed keys that
// outlive it in their queues instead of servicing them (per-key Expired
// bits, surfaced here as the same deadline error).
func (c *Cluster) Multiget(ctx context.Context, keys []string, opts ReadOptions) (res *TaskResult, err error) {
	if len(keys) == 0 {
		return &TaskResult{}, nil
	}
	if err := opts.Hedge.Validate(); err != nil {
		return &TaskResult{}, err
	}
	defer func() { countCtxErr(err) }()
	ctx, cancel := requestContext(ctx, opts.Timeout, c.opts.RequestTimeout)
	defer cancel()
	start := time.Now()
	st := c.state.Load()

	res = &TaskResult{
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
	}
	// Hot-key cache first: served keys never enter the task at all, and
	// a fully cached multiget touches no socket.
	pending := len(keys)
	var cached []bool
	if c.cache != nil {
		cached = make([]bool, len(keys))
		for i, k := range keys {
			if v, ok := c.cacheServe(k); ok {
				res.Values[i], res.Found[i] = v, true
				cached[i] = true
				pending--
			}
		}
		if pending == 0 {
			res.Latency = time.Since(start)
			multigetLatencyNS.Record(res.Latency.Nanoseconds())
			return res, nil
		}
	}

	// Build the task over the uncached keys with forecasted costs;
	// Group carries the shard so core.Decompose yields exactly one
	// sub-task per shard touched, and each request's ID remains the
	// key's slot in the ORIGINAL list so results land in place. The
	// per-key requests are one slab, not one allocation each.
	task := &core.Task{ID: c.taskSeq.Add(1), Client: c.opts.Client}
	reqs := make([]core.Request, 0, pending)
	task.Requests = make([]*core.Request, 0, pending)
	for i, k := range keys {
		if cached != nil && cached[i] {
			continue
		}
		size := c.opts.DefaultSize
		if v, ok := c.sizes.Load(k); ok {
			size = v.(int64)
		}
		reqs = append(reqs, core.Request{
			ID:      uint64(i),
			TaskID:  task.ID,
			Client:  c.opts.Client,
			Group:   cluster.GroupID(st.topo.ShardOfKey(k)),
			Size:    size,
			EstCost: c.opts.CostModel.Estimate(size),
		})
		task.Requests = append(task.Requests, &reqs[len(reqs)-1])
	}
	subs := core.Prepare(task, c.opts.Assigner)
	res.Bottleneck = core.Bottleneck(subs)
	var wg sync.WaitGroup
	errCh := make(chan error, len(subs))
	for i := range subs {
		sub := &subs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := shardBatch{
				shard:  int(sub.Group),
				taskID: task.ID,
				cost:   sub.Cost,
				keys:   make([]string, len(sub.Requests)),
				prios:  make([]int64, len(sub.Requests)),
				idx:    make([]int, len(sub.Requests)),
			}
			for j, r := range sub.Requests {
				b.keys[j] = keys[r.ID]
				b.prios[j] = r.Priority + opts.PriorityBias
				b.idx[j] = int(r.ID)
			}
			if ferr := c.fetchBatch(ctx, st, b, res, 0, opts); ferr != nil {
				errCh <- ferr
			}
		}()
	}
	wg.Wait()
	close(errCh)
	res.Latency = time.Since(start)
	multigetLatencyNS.Record(res.Latency.Nanoseconds())
	var errs []error
	for e := range errCh {
		errs = append(errs, e)
	}
	if len(errs) > 0 {
		return res, errors.Join(errs...)
	}
	return res, nil
}

// shardBatch is one shard's worth of a multiget: keys, their BRB
// priorities, and their slots in the original key list. Stray keys
// re-bucket into fresh shardBatches under the refreshed topology.
type shardBatch struct {
	shard  int
	taskID uint64
	cost   int64
	keys   []string
	prios  []int64
	idx    []int
}

// fetchBatch sends one shard's sub-task to its C3-ranked best replica,
// failing over through the remaining replicas on transport errors.
// Keys the server rejects as strays (a rebalance moved them) are
// re-bucketed under a refreshed topology and retried, up to
// maxEpochHops epochs deep. Result slots are disjoint across concurrent
// calls, so writes into res need no locking.
//
// The whole failover chain observes ctx: each attempt's wait selects on
// ctx.Done(), a ctx-terminated attempt does not mark the replica down
// (the caller gave up; the replica may be fine), and no further
// failover is attempted once ctx is done.
//
// With opts.Hedge armed, each attempt runs through hedgedBatch: a batch
// outstanding past the policy's trigger fans out to the next-ranked
// replica and the first complete answer wins (hedge.go). The hedged
// replicas share this call's tried set, so the failover loop never
// re-picks a replica a hedge already asked.
func (c *Cluster) fetchBatch(ctx context.Context, st *topoState, b shardBatch, res *TaskResult, depth int, opts ReadOptions) error {
	// b.shard is always bucketed from st.topo by the caller (Multiget or
	// retryStrays), so the shard exists in st by construction.
	scorer := st.scorers[b.shard]
	n := len(b.keys)
	pref := opts.Replica
	pol := opts.Hedge.withDefaults()
	tried := make([]bool, st.topo.Replicas())
	eligible := func(r int) bool {
		return !tried[r] && !st.slotOf(b.shard, r).down.Load()
	}
	for {
		// Replica preference: primary pins to replica 0 while it is
		// live, then falls back to ranked selection. With a controller
		// attached, prefer replicas the client still holds credits for;
		// fall back to pure C3 ranking when every eligible balance is
		// exhausted (credits steer, never block).
		rep := -1
		if pref == ReplicaPrimary && eligible(0) {
			rep = 0
		}
		if rep < 0 && c.credits != nil {
			rep = scorer.Best(func(r int) bool {
				return eligible(r) && c.credits.balance(st.topo.Server(b.shard, r)) > 0
			})
		}
		if rep < 0 {
			rep = scorer.Best(eligible)
		}
		if rep < 0 {
			// Every replica of the shard is exhausted under THIS state —
			// either our view is stale (a rebalance retired the shard and
			// an install closed its connections out from under us, with
			// the down-marks landing before this multiget could learn the
			// new epoch) or the replicas are genuinely gone. A topology
			// poll is cheap next to failing the whole sub-task: if it (or
			// a concurrent install) surfaces a newer state, the shard is
			// not dead, our view of it is — re-bucket the batch under the
			// fresh state.
			if depth < maxEpochHops {
				if nst := c.refreshTopology(ctx, st); nst != st {
					return c.retryStrays(ctx, st, b, res, b.idx, b.keys, b.prios, depth, opts)
				}
			}
			if ctx.Err() != nil {
				// The budget ran out while the replicas were exhausted:
				// report the deadline, not a dead shard.
				return ctxErr(ctx, fmt.Sprintf("shard %d replicas exhausted", b.shard))
			}
			return fmt.Errorf("%w %d", ErrNoReplica, b.shard)
		}
		tried[rep] = true
		slot := st.slotOf(b.shard, rep)
		sc := slot.pick()
		if sc == nil {
			// Lost a race with markDown's connection teardown: treat like
			// a transport failure and fail over.
			continue
		}

		if c.credits != nil {
			c.credits.spend(slot.id, float64(b.cost))
		}
		var resp *wire.BatchResp
		if pol.Mode != HedgeOff && st.topo.Replicas() > 1 {
			var err error
			var fired int
			resp, rep, fired, err = c.hedgedBatch(ctx, st, scorer, b, rep, slot, sc, tried, pol)
			if fired > 0 {
				// res slots are disjoint across sub-batches but Hedged is
				// shared; hedges from a failed attempt still cost real work,
				// so they count even when this attempt fails over.
				atomic.AddInt32(&res.Hedged, int32(fired))
			}
			if err != nil {
				if ctx.Err() != nil {
					return ctxErr(ctx, fmt.Sprintf("multiget batch on shard %d", b.shard))
				}
				// Every hedged attempt's connection died (each already
				// marked down inside): fail over like any transport loss.
				continue
			}
		} else {
			scorer.OnSend(rep, n)
			sent := time.Now()
			var err error
			resp, err = sc.batch(ctx, &wire.BatchReq{
				TaskID:   b.taskID,
				Shard:    uint32(b.shard),
				Replica:  uint32(rep),
				Epoch:    st.topo.Epoch(),
				Priority: b.prios,
				Keys:     b.keys,
			})
			if err != nil {
				// The scorer only unwinds outstanding — an aborted batch says
				// nothing about service times.
				scorer.OnError(rep, n)
				if ctx.Err() != nil {
					// The caller's deadline/cancellation ended the wait, not
					// the replica: no down-mark, no failover — the next
					// attempt would be aborted the same way.
					return ctxErr(ctx, fmt.Sprintf("multiget batch on shard %d", b.shard))
				}
				// Transport failure: mark the replica down (arming the
				// revival prober) and fail over to the next-ranked one.
				c.markDown(slot, sc)
				continue
			}
			rtt := float64(time.Since(sent).Nanoseconds())
			scorer.Observe(rep, n, rtt, float64(resp.ServiceNanos)/float64(n), int(resp.QueueLen))
		}
		if resp.Epoch > st.topo.Epoch() {
			// The server is ahead of us. Our keys were still served (any
			// strays are handled below), so no retry is needed — but flag
			// the lag so the prober refreshes before a stray forces it.
			c.epochLag.Store(true)
		}
		if resp.Misrouted() {
			// Pre-topology servers cannot tell us what moved; this is
			// configuration skew, not an epoch change, and failover
			// cannot fix it.
			return fmt.Errorf("netstore: server %d rejected batch for shard %d as misrouted", slot.id, b.shard)
		}
		if len(resp.Values) != n {
			return fmt.Errorf("netstore: shard %d returned %d values for %d keys", b.shard, len(resp.Values), n)
		}
		var strayIdx []int
		var strayKeys []string
		var strayPrios []int64
		expired := 0
		for i := range b.keys {
			if resp.Stray != nil && resp.Stray[i] {
				strayIdx = append(strayIdx, b.idx[i])
				strayKeys = append(strayKeys, b.keys[i])
				strayPrios = append(strayPrios, b.prios[i])
				continue
			}
			if resp.Expired != nil && resp.Expired[i] {
				// The server shed this key before service: the budget ran
				// out while it queued. Not a miss, not a stray — deadline
				// expiry, reported as such below.
				expired++
				continue
			}
			orig := b.idx[i]
			res.Values[orig] = resp.Values[i]
			res.Found[orig] = resp.Found[i]
			if resp.Found[i] {
				learnSize(&c.sizes, b.keys[i], int64(len(resp.Values[i])))
				// Cache fill, strictly gated on arrival: the stray and
				// expired branches above never reach here, so a key the
				// server refused or shed can never park a phantom entry
				// (it has no authoritative version to park under).
				if c.cache != nil && len(resp.Versions) == n {
					c.cacheFill(b.keys[i], resp.Values[i], resp.Versions[i])
				}
			}
			// Read-repair trigger: the response reveals this replica
			// holds an older version than this client last wrote (or
			// misses the key entirely) — push the fresh copy to it in the
			// background.
			if wv, ok := c.written.Load(b.keys[i]); ok && len(resp.Versions) == n &&
				resp.Versions[i] < wv.(uint64) {
				c.scheduleRepair(b.shard, rep, b.keys[i])
			}
		}
		var expErr error
		if expired > 0 {
			expErr = expiredKeysError(expired)
		}
		if len(strayIdx) == 0 {
			return expErr
		}
		// The server owns only part of this batch under its (newer)
		// topology: refresh ours and re-route exactly the strays. The
		// multiget now spans two epochs — served keys stand, strays go
		// around again.
		strayRetriesTotal.Add(uint64(len(strayIdx)))
		if depth >= maxEpochHops {
			return errors.Join(expErr, fmt.Errorf("%w (%d stray keys on shard %d)", ErrTopologySkew, len(strayIdx), b.shard))
		}
		return errors.Join(expErr, c.retryStrays(ctx, st, b, res, strayIdx, strayKeys, strayPrios, depth, opts))
	}
}

// retryStrays refreshes the topology and re-buckets the given keys by
// their new owners, fetching each bucket one epoch deeper. A server
// that rejected keys holds a newer topology by definition, so if the
// poll comes back empty it raced the rebalancer's push — wait a beat
// (ctx-bounded) and poll again before declaring skew.
func (c *Cluster) retryStrays(ctx context.Context, st *topoState, b shardBatch, res *TaskResult, idx []int, keys []string, prios []int64, depth int, opts ReadOptions) error {
	nst := c.refreshTopology(ctx, st)
	for i := 0; i < 4 && nst == st; i++ {
		if !sleepCtx(ctx, 25*time.Millisecond) {
			return ctxErr(ctx, fmt.Sprintf("stray retry on shard %d", b.shard))
		}
		nst = c.refreshTopology(ctx, st)
	}
	if nst == st && nst.topo.HasShard(b.shard) {
		return fmt.Errorf("%w (%d keys of shard %d)", ErrTopologySkew, len(keys), b.shard)
	}
	buckets := make(map[int]*shardBatch)
	for i, k := range keys {
		sh := nst.topo.ShardOfKey(k)
		nb := buckets[sh]
		if nb == nil {
			nb = &shardBatch{shard: sh, taskID: b.taskID, cost: b.cost}
			buckets[sh] = nb
		}
		nb.keys = append(nb.keys, k)
		nb.prios = append(nb.prios, prios[i])
		nb.idx = append(nb.idx, idx[i])
	}
	// Stray retries keep the caller's hedge policy but drop any primary
	// pin: the re-bucketed shard's replica 0 has no relation to the one
	// the caller pinned.
	opts.Replica = ReplicaAuto
	var errs []error
	for _, nb := range buckets {
		if err := c.fetchBatch(ctx, nst, *nb, res, depth+1, opts); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// sleepCtx sleeps for d or until ctx ends, reporting whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Topology returns the client's current cached topology (operations and
// test hook).
func (c *Cluster) Topology() *cluster.ShardTopology { return c.state.Load().topo }

// TopologyEpoch returns the epoch the client currently routes under.
func (c *Cluster) TopologyEpoch() uint64 { return c.state.Load().topo.Epoch() }

// TopologyRefreshes returns how many times this client installed a
// newer topology (test and operations hook).
func (c *Cluster) TopologyRefreshes() uint64 { return c.refreshes.Load() }

// HintOverflows returns how many writes were dropped from full
// hinted-handoff buffers (test and operations hook; the process-wide
// counterpart is metrics counter "netstore_hint_overflow_total").
func (c *Cluster) HintOverflows() uint64 { return c.hintOverflows.Load() }

// ReplicaDown reports whether the client currently considers a replica's
// connection dead (test and operations hook). With revival enabled this
// is transient state, not a verdict.
func (c *Cluster) ReplicaDown(shard, replica int) bool {
	return c.state.Load().slotOf(shard, replica).down.Load()
}

// Revivals returns how many times the prober has revived a down replica
// (test and operations hook).
func (c *Cluster) Revivals() uint64 { return c.revivals.Load() }

// PendingHints returns the number of keys hint-buffered for one replica
// (test and operations hook).
func (c *Cluster) PendingHints(shard, replica int) int {
	hb := &c.state.Load().slotOf(shard, replica).hints
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return len(hb.hints)
}

// ScoreOf exposes the C3 score of one replica of one shard (test hook).
func (c *Cluster) ScoreOf(shard, replica int) float64 {
	return c.state.Load().scorers[shard].ScoreOf(replica)
}

// CreditBalance returns the client's credit balance at one replica, or 0
// when no controller is attached (test and operations hook).
func (c *Cluster) CreditBalance(shard, replica int) float64 {
	if c.credits == nil {
		return 0
	}
	return c.credits.balance(c.state.Load().topo.Server(shard, replica))
}
