package wire

import (
	"errors"
	"io"
	"net"
	"sync"
)

// ErrWriterClosed is returned by Send after Close.
var ErrWriterClosed = errors.New("wire: ConnWriter closed")

// maxPendingBytes bounds the coalescing buffer: once this much encoded
// data is queued behind an in-flight Write, Send blocks until the
// connection drains — the same backpressure a direct blocking Write
// gave, minus the per-frame syscall.
const maxPendingBytes = 4 << 20

// ConnWriter coalesces frames written to one connection, replacing the
// mutex-guarded one-Write-per-frame pattern the netstore endpoints
// started with.
//
// When the connection is idle, Send writes its frame inline — same
// latency as a direct Write, and the write error surfaces synchronously.
// When a Write is already in flight, Send encodes into a shared pending
// buffer and returns; the writer goroutine drains everything that
// accumulated into one Write call, so under load many frames ride one
// syscall. Frames are always written in encode order.
//
// Stage and Push split Send for a caller that answers a run of requests
// on one goroutine: Stage encodes a frame into the pending buffer
// without writing it or waking the drain, and Push later writes
// everything staged in one syscall. A staged frame also leaves with the
// next Send, Flush, Close, or any Write already in flight — staging
// defers a frame, it never reorders one.
type ConnWriter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	w       io.Writer
	pending []byte // frames staged or queued behind the in-flight Write
	// pendExt holds payload slices the queued frames reference instead
	// of copying (SendVectored), at ascending offsets into pending;
	// extBytes is their total size, counted toward backpressure.
	pendExt  []extRef
	extBytes int
	spare    []byte      // recycled buffer for double-buffered swaps
	spareExt []extRef    // recycled ref slab
	vecs     net.Buffers // iovec scratch, touched only by the in-flight writer
	writing  bool        // a Write (inline or goroutine) is in flight
	writes   uint64      // completed Writes (the drain runs only after one)
	err      error       // sticky first write error
	closed   bool
	done     chan struct{}
}

// extRef is a payload slice referenced by the coalescing buffer instead
// of copied into it: b belongs at byte offset off of the pending frame
// bytes. The drain interleaves pending segments and referenced slices
// into one net.Buffers writev, so large values travel from the store to
// the socket without ever being memcpy'd into a staging buffer.
type extRef struct {
	off int
	b   []byte
}

// NewConnWriter starts a coalescing writer over w (w's Write must be
// safe for one concurrent caller, as net.Conn is). Close stops it.
func NewConnWriter(w io.Writer) *ConnWriter {
	cw := &ConnWriter{w: w, done: make(chan struct{})}
	cw.cond = sync.NewCond(&cw.mu)
	go cw.loop()
	return cw
}

// Send writes m's frame inline when the connection is idle, or queues
// it for the writer goroutine's next coalesced Write when one is
// already in flight. An inline write carries any staged frames ahead of
// m's. A non-nil return is the write's own error (inline path), the
// connection's sticky error, or ErrWriterClosed. A nil return on the
// queued path means the frame will be written unless the connection
// fails first — callers needing the stronger guarantee call Flush.
func (cw *ConnWriter) Send(m Message) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.admit(); err != nil {
		return err
	}
	cw.pending = AppendEncode(cw.pending, m)
	return cw.hand()
}

// SendVectored queues m like Send, but when m supports vectored
// encoding (server batch responses), payloads of minVectorBytes or more
// are queued as references and written with a net.Buffers writev burst
// instead of being copied into the coalescing buffer: k coalesced
// frames still cost one syscall, and large values are never memcpy'd on
// the way out. The caller must guarantee every referenced payload stays
// immutable until the frame reaches the connection — the server's store
// values qualify (a Set replaces the value slice, never mutates it);
// caller-owned buffers that may be reused do not. Messages without
// vectored support take Send's copying path. The error contract is
// Send's.
func (cw *ConnWriter) SendVectored(m Message) error {
	vm, ok := m.(vectorBody)
	if !ok {
		return cw.Send(m)
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.admit(); err != nil {
		return err
	}
	var extBytes int
	cw.pending, cw.pendExt, extBytes = appendEncodeVectored(cw.pending, cw.pendExt, vm)
	cw.extBytes += extBytes
	return cw.hand()
}

// Stage encodes m's frame into the pending buffer without writing it or
// waking the drain: the caller promises a Push (or a Send, Flush or
// Close) before it blocks on anything the peer's reply to m could be
// waiting for. A frame that takes the staged bytes past maxPendingBytes
// is pushed at once — nobody else would write them. The error is the
// connection's sticky error (possibly from that push) or
// ErrWriterClosed.
func (cw *ConnWriter) Stage(m Message) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.admit(); err != nil {
		return err
	}
	cw.pending = AppendEncode(cw.pending, m)
	if cw.over() {
		cw.push()
	}
	return cw.err
}

// Push writes every staged frame in one Write: inline when the
// connection is idle, otherwise they ride the drain's next Write, which
// follows the one in flight. Push does not wait for that drain. The
// error is the inline write's own, the sticky error, or ErrWriterClosed.
func (cw *ConnWriter) Push() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err == nil && !cw.closed {
		cw.push()
	}
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return ErrWriterClosed
	}
	return nil
}

// over reports whether pending frames exceed the backpressure bound.
func (cw *ConnWriter) over() bool {
	return len(cw.pending)+cw.extBytes > maxPendingBytes
}

// admit waits out backpressure and reports whether a new frame may be
// appended. Whenever pending is over the bound a Write is in flight —
// Send writes inline when idle, Stage pushes once it crosses the bound —
// and every Write ends with a Broadcast, so the wait always ends.
func (cw *ConnWriter) admit() error {
	for cw.err == nil && !cw.closed && cw.over() {
		cw.cond.Wait()
	}
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return ErrWriterClosed
	}
	return nil
}

// hand sends what a Send just appended: inline when the connection is
// idle, otherwise left to the drain. An in-flight Write ends with a
// Broadcast that wakes the drain, so the queued path needs no wakeup of
// its own.
func (cw *ConnWriter) hand() error {
	if cw.writing {
		return nil
	}
	cw.push()
	return cw.err
}

// push writes all pending frames inline if no Write is in flight; if
// one is, the drain picks them up when it ends. Called with cw.mu held;
// returns with it held.
func (cw *ConnWriter) push() {
	if cw.writing || len(cw.pending) == 0 {
		return
	}
	buf, exts := cw.pending, cw.pendExt
	cw.pending, cw.spare = cw.spare[:0], nil
	cw.pendExt, cw.spareExt = cw.spareExt[:0], nil
	cw.extBytes = 0
	cw.writeVec(buf, exts)
}

// maxSpareBytes bounds the buffer a ConnWriter retains between writes:
// a burst may grow the coalescing buffer toward maxPendingBytes, but
// keeping multi-MiB spares pinned on every idle connection afterwards
// would cost real memory at server connection counts, so oversized
// buffers are dropped to the GC once drained.
const maxSpareBytes = 64 << 10

// write performs one Write outside the lock and publishes the result.
// Called with cw.mu held and cw.writing false; returns with cw.mu held.
func (cw *ConnWriter) write(buf []byte) {
	cw.writing = true
	cw.mu.Unlock()
	_, err := cw.w.Write(buf)
	cw.mu.Lock()
	cw.writing = false
	cw.writes++
	cw.recycle(buf)
	if err != nil && cw.err == nil {
		cw.err = err
	}
	cw.cond.Broadcast()
}

// recycle parks a written buffer for reuse: as pending itself when
// nothing was appended meanwhile (so an idle connection's inline writes
// keep reusing one buffer), else as the spare for the next swap.
func (cw *ConnWriter) recycle(buf []byte) {
	switch {
	case cap(buf) > maxSpareBytes:
	case cap(cw.pending) == 0:
		cw.pending = buf[:0]
	case cw.spare == nil:
		cw.spare = buf[:0]
	}
}

// maxSpareVecs bounds the retained iovec scratch and ref slab (slice
// headers only, so this is ~12 KiB each at the bound).
const maxSpareVecs = 512

// writeVec performs one vectored Write (writev on a *net.TCPConn)
// outside the lock and publishes the result: buf is split at each ref's
// offset and interleaved with the referenced payloads, so the frames
// drain in exactly AppendEncode's byte order without the payload copy.
// With no refs it degenerates to write's single contiguous Write.
// Called with cw.mu held and cw.writing false; returns with cw.mu held.
func (cw *ConnWriter) writeVec(buf []byte, exts []extRef) {
	if len(exts) == 0 {
		cw.write(buf)
		return
	}
	cw.writing = true
	full := appendVecs(cw.vecs[:0], buf, exts)
	cw.vecs = nil
	cw.mu.Unlock()
	vecs := full
	_, err := vecs.WriteTo(cw.w)
	cw.mu.Lock()
	cw.writing = false
	cw.writes++
	// Drop every payload reference before parking the scratch slabs: a
	// retained iovec or ref would pin values until the next burst.
	for i := range full {
		full[i] = nil
	}
	if cap(full) <= maxSpareVecs {
		cw.vecs = full[:0]
	}
	for i := range exts {
		exts[i] = extRef{}
	}
	if cap(exts) <= maxSpareVecs {
		switch {
		case cap(cw.pendExt) == 0:
			cw.pendExt = exts[:0]
		case cw.spareExt == nil:
			cw.spareExt = exts[:0]
		}
	}
	cw.recycle(buf)
	if err != nil && cw.err == nil {
		cw.err = err
	}
	cw.cond.Broadcast()
}

// appendVecs splits buf at each ref's insertion offset and interleaves
// the referenced payloads — the iovec list one writev sends.
func appendVecs(vecs net.Buffers, buf []byte, exts []extRef) net.Buffers {
	last := 0
	for _, e := range exts {
		if e.off > last {
			vecs = append(vecs, buf[last:e.off])
		}
		vecs = append(vecs, e.b)
		last = e.off
	}
	if len(buf) > last {
		vecs = append(vecs, buf[last:])
	}
	return vecs
}

// Flush blocks until every frame queued or staged before the call has
// been handed to the connection, returning the sticky error if one
// occurred.
func (cw *ConnWriter) Flush() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err == nil {
		cw.push()
	}
	for cw.err == nil && (len(cw.pending) > 0 || cw.writing) {
		cw.cond.Wait()
	}
	return cw.err
}

// Close drains queued and staged frames and stops the writer goroutine.
// It does not close the underlying connection; teardown paths that must
// not block close the connection first, which fails the in-flight Write
// and unblocks Close.
func (cw *ConnWriter) Close() error {
	cw.mu.Lock()
	if !cw.closed {
		cw.closed = true
		cw.cond.Broadcast()
	}
	cw.mu.Unlock()
	<-cw.done
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.err
}

// loop drains frames that queued up behind an in-flight Write, one
// coalesced Write per accumulation. It drains only after a Write ended
// since its last drain (or on Close): frames staged on an idle
// connection stay put until their Push, however the loop was woken.
func (cw *ConnWriter) loop() {
	cw.mu.Lock()
	var seen uint64 // cw.writes at the last drain
	for {
		// Wait while another writer (an inline Send or Push) is in
		// flight, or nothing ended behind which frames could queue;
		// wake on writer completion, error, or Close.
		for cw.err == nil && (cw.writing || !cw.closed && (len(cw.pending) == 0 || cw.writes == seen)) {
			cw.cond.Wait()
		}
		if cw.err != nil || len(cw.pending) == 0 {
			// Error, or closed with nothing left to drain.
			break
		}
		seen = cw.writes
		cw.push()
	}
	cw.mu.Unlock()
	close(cw.done)
}
