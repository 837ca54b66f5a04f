package netstore

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/wire"
)

// versionClock issues the Cluster client's write versions:
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

// learnSize caches a key's observed value size for cost forecasting,
// skipping the store (and its per-call boxing allocation) when the
// cached size is already right — the steady-state case.
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
	// (hedged Cluster reads only). Sub-batches update it with atomic
	// adds while the call is in flight; read it only after the call
	// returns.
	Hedged int32
}

// expiredKeysError reports server-shed keys as a deadline expiry the
// caller can errors.Is-match.
func expiredKeysError(n int) error {
	return fmt.Errorf("netstore: server shed %d expired key(s) before service: %w", n, context.DeadlineExceeded)
}

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

// writeRoute is the topology routing header stamped on Set/Del frames:
// the shard the client routes the key to and the epoch it routes under.
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
