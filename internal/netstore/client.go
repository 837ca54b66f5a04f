package netstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/wire"
)

// ClientOptions configure a task-aware client.
type ClientOptions struct {
	// Topology maps keys to replica groups and groups to server indexes
	// (into the address list handed to Dial). Required.
	Topology *cluster.Topology
	// Assigner is the priority-assignment algorithm (default EqualMax).
	Assigner core.Assigner
	// CostModel forecasts per-key service cost from the value size
	// (default: 1 µs + 1 ns/byte — only relative order matters for
	// scheduling).
	CostModel core.CostModel
	// DefaultSize is the assumed size for keys not yet seen (sizes are
	// learned from responses). Default 1024.
	DefaultSize int64
	// Client identifies this client to the credits controller.
	Client int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds any operation whose context carries no
	// deadline (default DefaultRequestTimeout; negative disables the
	// default, restoring wait-forever semantics for background-context
	// callers). Per-call ReadOptions/WriteOptions.Timeout and ctx
	// deadlines always apply on top — the earliest bound wins.
	RequestTimeout time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Assigner == nil {
		o.Assigner = core.EqualMax{}
	}
	if o.CostModel == (core.CostModel{}) {
		o.CostModel = core.CostModel{BaseNanos: 1000, PerBytePico: 1000}
	}
	if o.DefaultSize <= 0 {
		o.DefaultSize = 1024
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// Client is a task-aware data-store client: it decomposes multi-key tasks
// into sub-tasks per replica group, forecasts costs from learned value
// sizes, stamps BRB priorities, selects replicas load-awarely, and issues
// batched reads.
type Client struct {
	opts  ClientOptions
	conns []*serverConn

	// sizes caches learned value sizes for cost forecasting.
	sizes sync.Map // string -> int64

	// outstanding[s] is the estimated in-flight service time (ns) at
	// server s from this client.
	outstanding []atomic.Int64

	// credits are granted by the controller (nil without one).
	credits *creditGate

	taskSeq atomic.Uint64

	// versions stamps writes; servers apply them last-writer-wins.
	versions versionClock
}

// Dial connects to every server address. addrs[i] must be the server
// hosting replica index i of the topology.
func Dial(addrs []string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	if opts.Topology == nil {
		return nil, errors.New("netstore: ClientOptions.Topology is required")
	}
	if len(addrs) != opts.Topology.NumServers() {
		return nil, fmt.Errorf("netstore: %d addresses for %d servers", len(addrs), opts.Topology.NumServers())
	}
	c := &Client{opts: opts, outstanding: make([]atomic.Int64, len(addrs))}
	for _, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netstore: dial %s: %w", addr, err)
		}
		sc := newServerConn(conn)
		c.conns = append(c.conns, sc)
	}
	return c, nil
}

// Close tears down all connections.
func (c *Client) Close() {
	for _, sc := range c.conns {
		if sc != nil {
			sc.close()
		}
	}
	if c.credits != nil {
		c.credits.close()
	}
}

// Set writes a key to every replica of its group in parallel, stamped
// with one version so all replicas store identical state for the write.
// The flat client is not epoch-routed: its Sets carry a zero Shard/Epoch
// header. The wait is bounded by ctx, opts.Timeout, and the client's
// RequestTimeout (earliest wins); WriteAll (default) requires every
// replica's ack, WriteAny returns after the first while the rest
// complete in the background.
func (c *Client) Set(ctx context.Context, key string, value []byte, opts WriteOptions) error {
	return c.write(ctx, key, value, false, opts)
}

// Delete removes a key from every replica of its group (versioned, so a
// concurrent older Set cannot resurrect it) and drops the key's learned
// size, so later cost forecasts fall back to DefaultSize instead of the
// stale size of a value that no longer exists. Deadline and fan-out
// semantics match Set's.
func (c *Client) Delete(ctx context.Context, key string, opts WriteOptions) error {
	return c.write(ctx, key, nil, true, opts)
}

func (c *Client) write(ctx context.Context, key string, value []byte, del bool, opts WriteOptions) (err error) {
	defer func() { countCtxErr(err) }()
	ctx, cancel := requestContextPooled(ctx, opts.Timeout, c.opts.RequestTimeout)
	op := &writeOp{key: key, value: value, ver: c.versions.next(), del: del}
	reps := c.opts.Topology.Replicas(c.opts.Topology.GroupOfKey(key))
	f := newAckFan(len(reps))
	for i, sid := range reps {
		f.start(ctx, i, c.conns[sid], op, writeRoute{})
	}
	var firstErr error
	for f.left > 0 {
		v := f.next(ctx, op.what())
		if v.err == nil && opts.Fanout == WriteAny {
			// First ack wins; the rest of the fan-out drains in the
			// background, and the ctx is only released once it finishes
			// so the stragglers are not cancelled by our return.
			go func() {
				for f.left > 0 {
					f.next(ctx, op.what())
				}
				cancel()
			}()
			c.learnWrite(op)
			return nil
		}
		if v.err != nil && firstErr == nil {
			firstErr = v.err
		}
	}
	cancel()
	if firstErr != nil {
		return firstErr
	}
	c.learnWrite(op)
	return nil
}

// learnWrite updates the size cache after an acknowledged write.
func (c *Client) learnWrite(op *writeOp) {
	if op.del {
		c.sizes.Delete(op.key)
	} else {
		learnSize(&c.sizes, op.key, int64(len(op.value)))
	}
}

// versionClock issues write versions (shared by Client and Cluster):
// wall-clock nanoseconds at the write, bumped to stay strictly
// monotonic within the client. Stamping each write with *current* time
// — rather than a dial-time seed plus a counter — keeps versions from
// concurrently running clients comparable, so last-writer-wins resolves
// by when a write happened, not by which client process started later.
// Cross-client writes within clock skew of each other remain arbitrary,
// as in any wall-clock LWW scheme.
type versionClock struct{ last atomic.Uint64 }

func (vc *versionClock) next() uint64 {
	for {
		prev := vc.last.Load()
		v := uint64(time.Now().UnixNano())
		if v <= prev {
			v = prev + 1
		}
		if vc.last.CompareAndSwap(prev, v) {
			return v
		}
	}
}

// learnSize caches a key's observed value size for cost forecasting
// (shared by Client and Cluster), skipping the store (and its per-call
// boxing allocation) when the cached size is already right — the
// steady-state case.
func learnSize(sizes *sync.Map, key string, size int64) {
	if v, ok := sizes.Load(key); ok && v.(int64) == size {
		return
	}
	sizes.Store(key, size)
}

// TaskResult is the outcome of one batched task.
type TaskResult struct {
	// Values are the read values, parallel to the requested keys;
	// missing keys yield nil.
	Values [][]byte
	// Found marks which keys existed.
	Found []bool
	// Latency is the task's completion time (issue → last sub-task
	// response).
	Latency time.Duration
	// Bottleneck is the task's forecasted bottleneck cost in
	// nanoseconds.
	Bottleneck int64
	// Hedged counts hedge attempts fired while serving this task
	// (sharded cluster reads only). Sub-batches update it with atomic
	// adds while the call is in flight; read it only after the call
	// returns.
	Hedged int32
}

// Get reads a single key through the batched pipeline (found=false for
// missing keys, never an error).
func (c *Client) Get(ctx context.Context, key string, opts ReadOptions) ([]byte, bool, error) {
	res, err := c.Multiget(ctx, []string{key}, opts)
	if err != nil {
		return nil, false, err
	}
	return res.Values[0], res.Found[0], nil
}

// Multiget performs one batched read: the full BRB client pipeline
// (forecast → decompose per replica group → prioritize → load-aware
// replica selection → scatter-gather). The wait is bounded by ctx,
// opts.Timeout, and the client's RequestTimeout; on expiry the partial
// TaskResult holds whatever batches answered in time, alongside an
// error wrapping context.DeadlineExceeded.
func (c *Client) Multiget(ctx context.Context, keys []string, opts ReadOptions) (res *TaskResult, err error) {
	if len(keys) == 0 {
		return &TaskResult{}, nil
	}
	defer func() { countCtxErr(err) }()
	ctx, cancel := requestContextPooled(ctx, opts.Timeout, c.opts.RequestTimeout)
	defer cancel()
	start := time.Now()
	topo := c.opts.Topology

	// Build the task with forecasted costs; the per-key requests are one
	// slab, not one allocation each.
	task := &core.Task{ID: c.taskSeq.Add(1), Client: c.opts.Client}
	reqs := make([]core.Request, len(keys))
	task.Requests = make([]*core.Request, len(keys))
	for i, k := range keys {
		size := c.opts.DefaultSize
		if v, ok := c.sizes.Load(k); ok {
			size = v.(int64)
		}
		reqs[i] = core.Request{
			ID:      uint64(i),
			TaskID:  task.ID,
			Client:  c.opts.Client,
			Group:   topo.GroupOfKey(k),
			Size:    size,
			EstCost: c.opts.CostModel.Estimate(size),
		}
		task.Requests[i] = &reqs[i]
	}
	subs := core.Prepare(task, c.opts.Assigner)
	bottleneck := core.Bottleneck(subs)

	// Replica selection per request (spatial optimization): pick the
	// replica with the most headroom, batching contiguous picks per
	// server.
	type outBatch struct {
		sid   cluster.ServerID
		keys  []string
		prios []int64
		idx   []int
	}
	// Batches are keyed by server, of which a task touches at most a
	// handful — a linear scan beats a map allocation per call.
	var batches []*outBatch
	for _, sub := range subs {
		reps := topo.Replicas(sub.Group)
		for _, r := range sub.Requests {
			best := c.pickReplica(reps, opts.Replica)
			var b *outBatch
			for _, cand := range batches {
				if cand.sid == best {
					b = cand
					break
				}
			}
			if b == nil {
				// Sized for the current sub-task; a server collecting
				// requests from several groups grows by append.
				n := len(sub.Requests)
				b = &outBatch{
					sid:   best,
					keys:  make([]string, 0, n),
					prios: make([]int64, 0, n),
					idx:   make([]int, 0, n),
				}
				batches = append(batches, b)
			}
			b.keys = append(b.keys, keys[r.ID])
			b.prios = append(b.prios, r.Priority+opts.PriorityBias)
			b.idx = append(b.idx, int(r.ID))
			c.outstanding[best].Add(r.EstCost)
			if c.credits != nil {
				c.credits.spend(int(best), float64(r.EstCost))
			}
		}
	}

	res = &TaskResult{
		Values:     make([][]byte, len(keys)),
		Found:      make([]bool, len(keys)),
		Bottleneck: bottleneck,
	}
	issue := func(b *outBatch) error {
		// The batch's forecasted work leaves the in-flight estimate on
		// every exit — a failed batch is no longer outstanding, and
		// leaving it accounted would permanently penalize the replica
		// in future pickReplica calls.
		defer func() {
			var est int64
			for _, orig := range b.idx {
				est += task.Requests[orig].EstCost
			}
			c.outstanding[b.sid].Add(-est)
		}()
		// Single-tier deployments leave the Shard/Replica routing
		// header zero (see wire.BatchReq).
		resp, err := c.conns[b.sid].batch(ctx, &wire.BatchReq{
			TaskID:   task.ID,
			Priority: b.prios,
			Keys:     b.keys,
		})
		if err != nil {
			return err
		}
		if resp.Misrouted() {
			return fmt.Errorf("netstore: server %d is shard-checking and rejected an unsharded batch as misrouted; use DialCluster against sharded deployments", b.sid)
		}
		if len(resp.Values) != len(b.keys) {
			return fmt.Errorf("netstore: server %d returned %d values for %d keys", b.sid, len(resp.Values), len(b.keys))
		}
		expired := 0
		for i, orig := range b.idx {
			if resp.Expired != nil && resp.Expired[i] {
				expired++
				continue
			}
			res.Values[orig] = resp.Values[i]
			res.Found[orig] = resp.Found[i]
			if resp.Found[i] {
				learnSize(&c.sizes, b.keys[i], int64(len(resp.Values[i])))
			}
		}
		if expired > 0 {
			return expiredKeysError(expired)
		}
		return nil
	}
	// Fan out to all batches but the first, which runs on this
	// goroutine — in the common single-server case the task costs no
	// goroutine spawn at all.
	var firstErr error
	if len(batches) > 1 {
		var wg sync.WaitGroup
		errCh := make(chan error, len(batches)-1)
		for _, b := range batches[1:] {
			b := b
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := issue(b); err != nil {
					errCh <- err
				}
			}()
		}
		firstErr = issue(batches[0])
		wg.Wait()
		close(errCh)
		if firstErr == nil {
			firstErr = <-errCh
		}
	} else {
		firstErr = issue(batches[0])
	}
	res.Latency = time.Since(start)
	if firstErr != nil {
		// Partial results ride along: batches that answered in time have
		// their slots filled, the rest read as not-found under the error.
		return res, firstErr
	}
	return res, nil
}

// expiredKeysError reports server-shed keys as a deadline expiry the
// caller can errors.Is-match.
func expiredKeysError(n int) error {
	return fmt.Errorf("netstore: server shed %d expired key(s) before service: %w", n, context.DeadlineExceeded)
}

// pickReplica chooses the replica with the most scheduling headroom:
// credit balance (when a controller is attached) minus outstanding
// forecasted work. ReplicaPrimary pins to the group's first replica
// instead (the flat client has no down-marking, so no fallback applies).
func (c *Client) pickReplica(reps []cluster.ServerID, pref ReplicaPreference) cluster.ServerID {
	if pref == ReplicaPrimary {
		return reps[0]
	}
	best := reps[0]
	bestH := c.headroom(best)
	for _, cand := range reps[1:] {
		if h := c.headroom(cand); h > bestH {
			best, bestH = cand, h
		}
	}
	return best
}

func (c *Client) headroom(s cluster.ServerID) float64 {
	h := -float64(c.outstanding[s].Load())
	if c.credits != nil {
		h += c.credits.balance(int(s))
	}
	return h
}

// Outstanding returns the client's estimated in-flight work at server s
// (test hook).
func (c *Client) Outstanding(s cluster.ServerID) int64 { return c.outstanding[s].Load() }

// NotOwnerError is a write rejection by a server that does not own the
// key under its (newer) topology: the caller should refresh its cached
// topology and re-route. Epoch is the server's topology epoch;
// OwnerShard is where the server believes the key lives.
type NotOwnerError struct {
	Epoch      uint64
	OwnerShard int
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("netstore: server does not own key (its epoch %d says shard %d)", e.Epoch, e.OwnerShard)
}

// writeRoute is the topology routing header stamped on Set/Del frames;
// the zero value means "not epoch-routed" (flat clients, legacy loads).
type writeRoute struct {
	shard int
	epoch uint64
}

// serverConn multiplexes batches over one TCP connection. Outbound
// frames ride a coalescing ConnWriter: concurrent sub-task goroutines
// queue their batches into one buffer and share Write syscalls.
type serverConn struct {
	conn net.Conn
	w    *wire.ConnWriter

	mu       sync.Mutex
	nextID   uint64
	pending  map[uint64]chan *wire.BatchResp
	pendAck  map[uint64]ackWaiter       // Set/Del verdicts awaited
	pendTopo map[uint64]chan *wire.Topo // TopoGet replies
	closed   bool
	closeErr error
}

func newServerConn(conn net.Conn) *serverConn {
	return newServerConnReader(conn, bufio.NewReaderSize(conn, 64<<10))
}

// newServerConnReader wraps a connection whose read side is already
// buffered — the revival prober hands over the reader it exchanged the
// Ping/Pong on, so no buffered byte is lost in the swap.
func newServerConnReader(conn net.Conn, r *bufio.Reader) *serverConn {
	sc := &serverConn{
		conn:     conn,
		w:        wire.NewConnWriter(conn),
		pending:  make(map[uint64]chan *wire.BatchResp),
		pendAck:  make(map[uint64]ackWaiter),
		pendTopo: make(map[uint64]chan *wire.Topo),
	}
	go sc.readLoop(r)
	return sc
}

func (sc *serverConn) readLoop(r *bufio.Reader) {
	for {
		msg, err := wire.ReadMessage(r)
		if err != nil {
			sc.mu.Lock()
			sc.closed = true
			sc.closeErr = err
			for _, ch := range sc.pending {
				close(ch)
			}
			// A write's verdict channel is shared by its whole fan-out,
			// so it is never closed: each awaited write gets an error
			// verdict instead.
			if len(sc.pendAck) > 0 {
				dead := fmt.Errorf("netstore: connection closed awaiting write: %v", err)
				for _, a := range sc.pendAck {
					a.post(dead)
				}
			}
			for _, ch := range sc.pendTopo {
				close(ch)
			}
			sc.pending = map[uint64]chan *wire.BatchResp{}
			sc.pendAck = map[uint64]ackWaiter{}
			sc.pendTopo = map[uint64]chan *wire.Topo{}
			sc.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case *wire.BatchResp:
			sc.mu.Lock()
			ch, live := sc.pending[m.Batch]
			delete(sc.pending, m.Batch)
			sc.mu.Unlock()
			if !live {
				// The batch was abandoned (its sender saw a write error
				// and gave up): drop the response instead of keeping a
				// channel nobody will receive on.
				continue
			}
			// The waiter's channel is buffered and it receives exactly
			// once, so this send cannot block the read loop; a server
			// double-answering a batch ID would hit the default case.
			select {
			case ch <- m:
			default:
			}
		case *wire.SetResp:
			sc.ack(m.Seq, nil)
		case *wire.DelResp:
			sc.ack(m.Seq, nil)
		case *wire.NotOwner:
			sc.ack(m.ID, &NotOwnerError{Epoch: m.Epoch, OwnerShard: int(m.Hint)})
		case *wire.Topo:
			sc.mu.Lock()
			ch, live := sc.pendTopo[m.Seq]
			delete(sc.pendTopo, m.Seq)
			sc.mu.Unlock()
			if live {
				select {
				case ch <- m:
				default:
				}
			}
		}
	}
}

// batch sends req (Batch is assigned here; all other fields are the
// caller's) and waits for its response, ctx cancellation, or connection
// death — whichever comes first. The ctx deadline is stamped onto the
// request's Budget (unless the caller pre-set one) so the server can
// shed the batch's keys if they queue past it; a budget already spent
// fails before any byte is sent. On ctx termination the waiter
// deregisters, so a late response is dropped by the read loop instead
// of leaking a channel.
func (sc *serverConn) batch(ctx context.Context, req *wire.BatchReq) (*wire.BatchResp, error) {
	id, ch, err := sc.startBatch(ctx, req)
	if err != nil {
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("netstore: connection closed awaiting batch: %v", sc.closeError())
		}
		return resp, nil
	case <-ctx.Done():
		sc.abandonBatch(id)
		return nil, ctxErr(ctx, "batch abandoned")
	}
}

// startBatch is the asynchronous half of batch: it registers a waiter
// channel, stamps the Budget and Batch ID, and sends the frame, but
// does not wait. The caller owns the wait — a hedged read selects over
// several of these channels at once. The channel yields exactly one
// response, or is closed if the connection dies; a caller that stops
// caring must abandonBatch(id) so a late response is dropped instead of
// leaking the pending-map entry.
func (sc *serverConn) startBatch(ctx context.Context, req *wire.BatchReq) (uint64, chan *wire.BatchResp, error) {
	if req.Budget == 0 {
		b, ok := budgetOf(ctx)
		if !ok {
			return 0, nil, ctxErr(ctx, "batch not sent")
		}
		req.Budget = b
	}
	ch := make(chan *wire.BatchResp, 1)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return 0, nil, fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	id := sc.nextID
	sc.pending[id] = ch
	sc.mu.Unlock()

	req.Batch = id
	if err := sc.w.Send(req); err != nil {
		sc.mu.Lock()
		delete(sc.pending, id)
		sc.mu.Unlock()
		return 0, nil, err
	}
	return id, ch, nil
}

// abandonBatch deregisters a startBatch waiter; the read loop then drops
// the batch's response on arrival (the server still does the work — the
// abandonment is a client-side bookkeeping release, not a wire cancel).
func (sc *serverConn) abandonBatch(id uint64) {
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
}

// ack delivers a write acknowledgment (SetResp/DelResp, result nil) or
// rejection (NotOwner, result non-nil) to its waiter; Set and Del share
// the connection's seq space.
func (sc *serverConn) ack(seq uint64, result error) {
	sc.mu.Lock()
	a, live := sc.pendAck[seq]
	delete(sc.pendAck, seq)
	sc.mu.Unlock()
	if live {
		a.post(result)
	}
}

// ackVerdict is one replica's outcome within a write fan-out: nil for
// an ack, a *NotOwnerError, a transport error, or the caller's ctx
// ending the wait. idx is the caller's index for the replica.
type ackVerdict struct {
	idx int
	err error
}

// ackWaiter routes one awaited write's verdict to its fan-out's channel.
type ackWaiter struct {
	ch  chan<- ackVerdict
	idx int
}

// post delivers the verdict. The channel has room for one verdict per
// replica of the fan-out and each waiter posts at most once, so this
// never blocks the read loop; the default case guards against a server
// double-answering a seq.
func (a ackWaiter) post(err error) {
	select {
	case a.ch <- ackVerdict{idx: a.idx, err: err}:
	default:
	}
}

// writeOp is one versioned write: a Set, or a Delete when del. Version 0
// asks the server for a local auto-advanced version.
type writeOp struct {
	key   string
	value []byte
	ver   uint64
	del   bool
}

func (op *writeOp) what() string {
	if op.del {
		return "del"
	}
	return "set"
}

// startWrite is the write-side twin of startBatch: it registers a
// waiter under a fresh seq and sends op's frame inline from the
// caller's goroutine, without waiting. The verdict — the server's ack or
// NotOwner, or an error if the connection dies first — arrives on ch
// tagged with idx. The ctx deadline rides the frame as its remaining
// Budget; a budget already spent fails without sending. A non-nil error
// means nothing was registered and no verdict will come; otherwise a
// caller that stops waiting must abandonAck(seq).
func (sc *serverConn) startWrite(ctx context.Context, op *writeOp, rt writeRoute, ch chan<- ackVerdict, idx int) (uint64, error) {
	budget, ok := budgetOf(ctx)
	if !ok {
		return 0, ctxErr(ctx, op.what()+" not sent")
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return 0, fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	seq := sc.nextID
	sc.pendAck[seq] = ackWaiter{ch: ch, idx: idx}
	sc.mu.Unlock()
	var m wire.Message
	if op.del {
		m = &wire.Del{Seq: seq, Version: op.ver, Shard: uint32(rt.shard), Epoch: rt.epoch, Budget: budget, Key: op.key}
	} else {
		m = &wire.Set{Seq: seq, Version: op.ver, Shard: uint32(rt.shard), Epoch: rt.epoch, Budget: budget, Key: op.key, Value: op.value}
	}
	if err := sc.w.Send(m); err != nil {
		sc.mu.Lock()
		_, registered := sc.pendAck[seq]
		delete(sc.pendAck, seq)
		sc.mu.Unlock()
		if registered {
			return 0, err
		}
		// The read loop already failed the waiter: its verdict is on
		// ch, and the caller must collect it like any other.
	}
	return seq, nil
}

// abandonAck deregisters a startWrite waiter whose caller stopped
// waiting, reporting whether it was still registered. False means the
// read loop claimed it first, and its verdict is posted or about to be.
func (sc *serverConn) abandonAck(seq uint64) bool {
	sc.mu.Lock()
	_, live := sc.pendAck[seq]
	delete(sc.pendAck, seq)
	sc.mu.Unlock()
	return live
}

// ackFan is one write's fan-out across replicas without a goroutine per
// replica: start sends each replica's frame inline, and every verdict
// lands on one buffered channel that next drains. Every wait is
// ctx-bounded: foreground writes carry the request deadline, background
// repair traffic a DialTimeout-bounded ctx, so one wedged-but-open
// server can neither hang a caller forever nor capture the prober or a
// repair slot.
type ackFan struct {
	verdicts chan ackVerdict
	// waits[idx] is the connection replica idx was sent on, and the seq
	// its verdict is awaited under (0 once settled, or if the send
	// failed).
	waits []ackWait
	// left counts verdicts still to be returned by next.
	left int
}

type ackWait struct {
	sc  *serverConn
	seq uint64
}

func newAckFan(n int) ackFan {
	return ackFan{verdicts: make(chan ackVerdict, n), waits: make([]ackWait, n)}
}

// start sends op to replica idx over sc. A send that fails outright
// yields its error as idx's verdict straight away.
func (f *ackFan) start(ctx context.Context, idx int, sc *serverConn, op *writeOp, rt writeRoute) {
	f.left++
	seq, err := sc.startWrite(ctx, op, rt, f.verdicts, idx)
	f.waits[idx] = ackWait{sc: sc, seq: seq}
	if err != nil {
		f.verdicts <- ackVerdict{idx: idx, err: err}
	}
}

// next returns one outstanding verdict. Once ctx ends, replicas still
// awaited are abandoned one per call, each returned with the ctx error.
// Call it exactly once per start.
func (f *ackFan) next(ctx context.Context, what string) ackVerdict {
	f.left--
	select {
	case v := <-f.verdicts:
		return f.settled(v)
	case <-ctx.Done():
	}
	// A verdict that already arrived beats abandoning its replica.
	select {
	case v := <-f.verdicts:
		return f.settled(v)
	default:
	}
	for i, w := range f.waits {
		if w.seq != 0 && w.sc.abandonAck(w.seq) {
			f.waits[i].seq = 0
			return ackVerdict{idx: i, err: ctxErr(ctx, what+" abandoned")}
		}
	}
	// Every replica still awaited was claimed by its read loop, so a
	// verdict is on its way.
	return f.settled(<-f.verdicts)
}

func (f *ackFan) settled(v ackVerdict) ackVerdict {
	f.waits[v.idx].seq = 0
	return v
}

// write sends one versioned write under the given topology route and
// waits for its verdict until ctx ends. A *NotOwnerError return means
// the server rejected the key as not its own.
func (sc *serverConn) write(ctx context.Context, op *writeOp, rt writeRoute) error {
	f := newAckFan(1)
	f.start(ctx, 0, sc, op, rt)
	return f.next(ctx, op.what()).err
}

// set writes one versioned key (version 0 = server-assigned local
// version) and waits for the acknowledgment until ctx ends.
func (sc *serverConn) set(ctx context.Context, key string, value []byte, version uint64, rt writeRoute) error {
	return sc.write(ctx, &writeOp{key: key, value: value, ver: version}, rt)
}

// del deletes one versioned key and waits for the acknowledgment until
// ctx ends.
func (sc *serverConn) del(ctx context.Context, key string, version uint64, rt writeRoute) error {
	return sc.write(ctx, &writeOp{key: key, ver: version, del: true}, rt)
}

// topoGet asks the server for its current topology and waits for the
// reply (nil Epoch-0 topologies come back as-is; the caller decides
// whether that is useful). The wait is bounded: topology refresh runs
// under the client's single-flight lock, and one wedged server — TCP
// alive, process stalled — must not stall every operation behind it.
// The reply channel is buffered, so a reply racing the timeout parks
// harmlessly instead of blocking the read loop.
func (sc *serverConn) topoGet(timeout time.Duration) (*wire.Topo, error) {
	ch := make(chan *wire.Topo, 1)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, fmt.Errorf("netstore: connection closed: %v", sc.closeErr)
	}
	sc.nextID++
	id := sc.nextID
	sc.pendTopo[id] = ch
	sc.mu.Unlock()
	if err := sc.w.Send(&wire.TopoGet{Seq: id}); err != nil {
		sc.mu.Lock()
		delete(sc.pendTopo, id)
		sc.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case tp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("netstore: connection closed awaiting topology: %v", sc.closeError())
		}
		return tp, nil
	case <-timer.C:
		sc.mu.Lock()
		delete(sc.pendTopo, id)
		sc.mu.Unlock()
		return nil, fmt.Errorf("netstore: topology fetch timed out after %v", timeout)
	}
}

func (sc *serverConn) closeError() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.closeErr
}

func (sc *serverConn) close() {
	// Connection first: a stuck in-flight Write fails instead of
	// blocking the writer drain.
	_ = sc.conn.Close()
	_ = sc.w.Close()
}
