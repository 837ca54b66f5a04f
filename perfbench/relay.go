package main

// The traced run puts a relay in front of every server. The relay
// forwards bytes as soon as it reads them and, beside the forwarding,
// parses the byte stream into wire frames, so it sees every batch,
// response and write the client and server exchange — with the
// server-side fields (queue wait, service time, queue length) that ride
// the responses — without any change to the program.

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/wire"
)

// tap copies src to dst, forwarding each read before parsing it, and
// hands every complete frame payload to onFrame. onRead sees the size of
// each read. Frames may arrive split across reads or several to a read;
// it returns the first read, write or framing error.
func tap(src io.Reader, dst io.Writer, onRead func(n int), onFrame func(payload []byte)) error {
	br := bufio.NewReaderSize(&forwardReader{src: src, dst: dst, onRead: onRead}, 64<<10)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		onFrame(f.Bytes())
		f.Release()
	}
}

type forwardReader struct {
	src    io.Reader
	dst    io.Writer
	onRead func(n int)
}

func (r *forwardReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	if n > 0 {
		r.onRead(n)
		if _, werr := r.dst.Write(p[:n]); werr != nil {
			return n, werr
		}
	}
	return n, err
}

// wireEvent is one frame the relay saw, stamped when its last byte
// arrived.
type wireEvent struct {
	t        int64 // ns since the trace epoch
	conn     int32 // relay connection
	server   int16
	toServer bool
	typ      wire.MsgType
	id       uint64 // BatchReq/BatchResp batch id, Set/SetResp sequence
	task     uint64 // BatchReq task id
	sig      uint64 // BatchReq key-multiset signature (see keySig)
	keys     int32
	size     int32 // frame bytes, length prefix included
	wait     int64 // BatchResp.WaitNanos
	svc      int64 // BatchResp.ServiceNanos
	qlen     uint32
}

// tracer collects what the relays see while recording is on.
type tracer struct {
	epoch     time.Time
	recording atomic.Bool
	reads     atomic.Int64
	frames    atomic.Int64
	bytes     atomic.Int64
	badFrames atomic.Int64
	nextConn  atomic.Int32

	mu           sync.Mutex
	events       []wireEvent
	capture      [][]byte // frame payloads kept for the codec replay
	captureBytes int
}

// maxCapture and maxCaptureBytes bound the frames kept for replaying
// through the codec.
const (
	maxCapture      = 20000
	maxCaptureBytes = 32 << 20
)

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) onRead(n int) {
	if t.recording.Load() {
		t.reads.Add(1)
	}
}

func (t *tracer) onFrame(server int, conn int32, toServer bool, payload []byte) {
	if !t.recording.Load() {
		return
	}
	now := int64(time.Since(t.epoch))
	t.frames.Add(1)
	t.bytes.Add(int64(len(payload) + 4))
	ev := wireEvent{t: now, conn: conn, server: int16(server), toServer: toServer,
		typ: wire.MsgType(payload[0]), size: int32(len(payload) + 4)}
	m, err := wire.DecodeAlias(payload)
	if err != nil {
		t.badFrames.Add(1)
		return
	}
	switch m := m.(type) {
	case *wire.BatchReq:
		ev.id, ev.task, ev.keys = m.Batch, m.TaskID, int32(len(m.Keys))
		ev.sig = keySig(m.Keys)
	case *wire.BatchResp:
		ev.id, ev.keys = m.Batch, int32(len(m.Values))
		ev.wait, ev.svc, ev.qlen = m.WaitNanos, m.ServiceNanos, m.QueueLen
	case *wire.Set:
		ev.id = m.Seq
	case *wire.SetResp:
		ev.id = m.Seq
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	if len(t.capture) < maxCapture && t.captureBytes+len(payload) <= maxCaptureBytes {
		t.capture = append(t.capture, append([]byte(nil), payload...))
		t.captureBytes += len(payload)
	}
	t.mu.Unlock()
}

// snapshot returns the events and captured frames recorded so far.
func (t *tracer) snapshot() ([]wireEvent, [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]wireEvent(nil), t.events...), t.capture
}

// keySig is an order-independent signature of a key multiset: the sum
// of the keys' FNV-1a hashes. A multiget's signature equals the sum of
// its per-shard batches' signatures, which is how the traced run joins
// the batches of one task to the op that issued it.
func keySig(keys []string) uint64 {
	var s uint64
	for _, k := range keys {
		h := uint64(0xcbf29ce484222325)
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 0x100000001b3
		}
		s += h
	}
	return s
}

// relay fronts one server.
type relay struct {
	ln     net.Listener
	target string
	server int
	tr     *tracer

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func startRelay(target string, server int, tr *tracer) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, server: server, tr: tr}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			_ = c.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = c.Close()
			_ = s.Close()
			return
		}
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		id := r.tr.nextConn.Add(1)
		r.wg.Add(2)
		go r.pipe(c, s, id, true)
		go r.pipe(s, c, id, false)
	}
}

// pipe runs one direction of a relayed connection; when it ends, both
// sockets close so the other direction ends too.
func (r *relay) pipe(src, dst net.Conn, id int32, toServer bool) {
	defer r.wg.Done()
	_ = tap(src, dst, r.tr.onRead, func(p []byte) { r.tr.onFrame(r.server, id, toServer, p) })
	_ = src.Close()
	_ = dst.Close()
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	_ = r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
