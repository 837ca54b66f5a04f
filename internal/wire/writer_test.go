package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/testutil"
)

// blockingWriter counts Write calls and can stall them, so tests can
// force frames to pile up behind an in-flight Write.
type blockingWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	writes  int
	gate    chan struct{} // non-nil: every Write waits for one token
	started chan struct{} // non-nil: signaled when a Write begins
	err     error
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.started != nil {
		w.started <- struct{}{}
	}
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.err != nil {
		return 0, w.err
	}
	return w.buf.Write(p)
}

func (w *blockingWriter) snapshot() (int, []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, append([]byte(nil), w.buf.Bytes()...)
}

func readAllFrames(t *testing.T, data []byte) []Message {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(data))
	var msgs []Message
	for {
		m, err := ReadMessage(r)
		if err == io.EOF {
			return msgs
		}
		if err != nil {
			t.Fatalf("parsing coalesced stream: %v", err)
		}
		msgs = append(msgs, m)
	}
}

// Frames queued while a Write is stalled must coalesce into fewer
// Writes, arrive intact, and preserve Send order.
func TestConnWriterCoalesces(t *testing.T) {
	const frames = 100
	w := &blockingWriter{
		gate:    make(chan struct{}, frames+1),
		started: make(chan struct{}, frames+1),
	}
	cw := NewConnWriter(w)

	// The first Send takes the inline path and stalls in Write on
	// another goroutine; the rest queue behind it.
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	for i := 1; i < frames; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	for len(w.started) > 0 {
		<-w.started
	}
	w.started = nil
	writes, data := w.snapshot()
	if writes >= frames {
		t.Fatalf("no coalescing: %d writes for %d frames", writes, frames)
	}
	msgs := readAllFrames(t, data)
	if len(msgs) != frames {
		t.Fatalf("got %d frames, want %d", len(msgs), frames)
	}
	for i, m := range msgs {
		if m.(*Ping).Nonce != uint64(i) {
			t.Fatalf("frame %d out of order: nonce %d", i, m.(*Ping).Nonce)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent senders over a live pipe: every frame arrives exactly once.
func TestConnWriterConcurrentSenders(t *testing.T) {
	const senders = 8
	const perSender = 200
	var w blockingWriter
	cw := NewConnWriter(&w)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := cw.Send(&Ping{Nonce: uint64(s*perSender + i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	_, data := w.snapshot()
	seen := make(map[uint64]bool)
	for _, m := range readAllFrames(t, data) {
		n := m.(*Ping).Nonce
		if seen[n] {
			t.Fatalf("frame %d delivered twice", n)
		}
		seen[n] = true
	}
	if len(seen) != senders*perSender {
		t.Fatalf("got %d frames, want %d", len(seen), senders*perSender)
	}
}

// A write error is sticky: the failing Send (or the next one) reports
// it, and every Send afterwards fails fast.
func TestConnWriterStickyError(t *testing.T) {
	wantErr := errors.New("boom")
	w := &blockingWriter{err: wantErr}
	cw := NewConnWriter(w)
	// The inline fast path surfaces the error synchronously.
	if err := cw.Send(&Ping{Nonce: 1}); !errors.Is(err, wantErr) {
		t.Fatalf("first Send err = %v, want %v", err, wantErr)
	}
	for i := 0; i < 3; i++ {
		if err := cw.Send(&Ping{Nonce: 2}); !errors.Is(err, wantErr) {
			t.Fatalf("Send after error = %v, want %v", err, wantErr)
		}
	}
	if err := cw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close err = %v, want %v", err, wantErr)
	}
}

// Close drains everything queued before it.
func TestConnWriterCloseDrains(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 64),
		started: make(chan struct{}, 64),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	for i := 1; i < 10; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for len(w.started) > 0 {
		<-w.started
	}
	w.started = nil
	_, data := w.snapshot()
	if got := len(readAllFrames(t, data)); got != 10 {
		t.Fatalf("Close dropped frames: %d of 10 arrived", got)
	}
	if err := cw.Send(&Ping{Nonce: 99}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Send after Close = %v, want ErrWriterClosed", err)
	}
}

// A write error hit by the drain goroutine surfaces to writers that
// queued behind the in-flight Write: the first queued Send returned nil
// (frame accepted), but every Send and the Flush after the failure
// report the sticky error.
func TestConnWriterQueuedWriterSeesStickyError(t *testing.T) {
	wantErr := errors.New("pipe burst")
	w := &blockingWriter{
		gate:    make(chan struct{}, 64),
		started: make(chan struct{}, 64),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started
	// Queued behind the stalled inline Write; accepted without error.
	if err := cw.Send(&Ping{Nonce: 1}); err != nil {
		t.Fatalf("queued Send before failure: %v", err)
	}
	// Fail every Write from now on, then release the stalled one (which
	// fails) and the drain's coalesced Write of the queued frame.
	w.mu.Lock()
	w.err = wantErr
	w.mu.Unlock()
	for i := 0; i < 4; i++ {
		w.gate <- struct{}{}
	}
	if err := <-firstDone; !errors.Is(err, wantErr) {
		t.Fatalf("inline Send err = %v, want %v", err, wantErr)
	}
	// The queued frame's loss is observable: Flush and any later Send
	// report the sticky error instead of pretending delivery.
	waitErr := func(f func() error, what string) {
		testutil.Eventually(t, 2*time.Second, what+" surfacing the sticky error", func() bool {
			return errors.Is(f(), wantErr)
		})
	}
	waitErr(func() error { return cw.Flush() }, "Flush")
	waitErr(func() error { return cw.Send(&Ping{Nonce: 2}) }, "Send")
	if err := cw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close err = %v, want %v", err, wantErr)
	}
}

// Send blocks once maxPendingBytes of encoded frames are queued behind a
// stalled Write, and unblocks when the connection drains — backpressure,
// not unbounded buffering.
func TestConnWriterBackpressure(t *testing.T) {
	w := &blockingWriter{
		gate:    make(chan struct{}, 1024),
		started: make(chan struct{}, 1024),
	}
	cw := NewConnWriter(w)
	firstDone := make(chan error, 1)
	go func() { firstDone <- cw.Send(&Ping{Nonce: 0}) }()
	<-w.started

	// Fill the pending buffer to just past maxPendingBytes with large
	// Sets: Send's bound check runs before appending, so each of these
	// still returns, and the last one tips the buffer over the bound.
	big := &Set{Key: "k", Value: make([]byte, 1<<20)}
	for i := 0; i < maxPendingBytes/(1<<20); i++ {
		if err := cw.Send(big); err != nil {
			t.Fatal(err)
		}
	}
	// The buffer is now over the bound: the next Send must block.
	blocked := make(chan error, 1)
	go func() { blocked <- cw.Send(&Ping{Nonce: 9}) }()
	select {
	case err := <-blocked:
		t.Fatalf("Send returned (%v) with %d+ MiB pending; want it to block", err, maxPendingBytes>>20)
	case <-time.After(100 * time.Millisecond):
	}
	// Drain: release every Write; the blocked Send completes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case w.gate <- struct{}{}:
			case <-time.After(50 * time.Millisecond):
				return
			}
		}
	}()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked Send failed after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after the connection drained")
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	<-done
	for len(w.started) > 0 {
		<-w.started
	}
	w.started = nil
	w.gate = nil
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// Close terminates the drain goroutine: the done channel closes, a
// second Close returns immediately, and Sends racing Close either
// deliver or report ErrWriterClosed — nothing hangs.
func TestConnWriterDrainShutdown(t *testing.T) {
	var w blockingWriter
	cw := NewConnWriter(&w)
	for i := 0; i < 10; i++ {
		if err := cw.Send(&Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 2)
	go func() { closed <- cw.Close() }()
	go func() { closed <- cw.Close() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung — drain goroutine did not shut down")
		}
	}
	select {
	case <-cw.done:
	default:
		t.Fatal("drain goroutine still running after Close returned")
	}
	// Writes after close fail fast with ErrWriterClosed, not a hang or a
	// silent drop.
	for i := 0; i < 3; i++ {
		if err := cw.Send(&Ping{Nonce: 99}); !errors.Is(err, ErrWriterClosed) {
			t.Fatalf("Send after Close = %v, want ErrWriterClosed", err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatalf("Flush after clean Close: %v", err)
	}
}

// The steady-state Send path must not allocate beyond the frame append.
func TestConnWriterSendAllocs(t *testing.T) {
	var w blockingWriter
	w.buf.Grow(1 << 20) // sink growth must not count against Send
	cw := NewConnWriter(&w)
	m := &Ping{Nonce: 7}
	if err := cw.Send(m); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := cw.Send(m); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Send: %.1f allocs/op, want 0", avg)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// An idle writer flushes a lone frame promptly (no batching delay).
func TestConnWriterIdleFlush(t *testing.T) {
	var w blockingWriter
	cw := NewConnWriter(&w)
	defer cw.Close()
	if err := cw.Send(&Ping{Nonce: 5}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 2*time.Second, "idle frame flush", func() bool {
		_, data := w.snapshot()
		return len(data) > 0
	})
	_, data := w.snapshot()
	if got := readAllFrames(t, data); len(got) != 1 || got[0].(*Ping).Nonce != 5 {
		t.Fatalf("unexpected flushed frames: %v", got)
	}
}

// benchResp builds a BatchResp mixing values below and above the
// vectoring threshold, so both the inline-copy and the extRef paths of
// the vectored encoder are exercised in one frame.
func benchResp(nBig, nSmall int) *BatchResp {
	m := &BatchResp{Batch: 42, Epoch: 7, QueueLen: 3, WaitNanos: 11, ServiceNanos: 13}
	for i := 0; i < nBig+nSmall; i++ {
		size := 16
		if i < nBig {
			size = minVectorBytes + i
		}
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(i + j)
		}
		m.Values = append(m.Values, v)
		m.Found = append(m.Found, true)
		m.Versions = append(m.Versions, uint64(i+1))
	}
	return m
}

// TestSendVectoredMatchesEncode pins the wire format: the writev path
// must put byte-identical frames on the wire as the copying encoder,
// whatever mix of referenced and inlined values the response carries.
func TestSendVectoredMatchesEncode(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nBig, nSmall int
	}{
		{"all-small", 0, 4},
		{"all-big", 4, 0},
		{"mixed", 3, 5},
		{"empty", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := benchResp(tc.nBig, tc.nSmall)
			w := &blockingWriter{}
			cw := NewConnWriter(w)
			if err := cw.SendVectored(m); err != nil {
				t.Fatal(err)
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			_, got := w.snapshot()
			if want := Encode(m); !bytes.Equal(got, want) {
				t.Fatalf("vectored frame differs from Encode: %d vs %d bytes", len(got), len(want))
			}
		})
	}
}

// TestSendVectoredInterleavesQueued stalls the first Write so vectored
// and plain frames pile up behind it, then verifies the coalesced drain
// emits every frame intact and in order.
func TestSendVectoredInterleavesQueued(t *testing.T) {
	w := &blockingWriter{gate: make(chan struct{}, 64), started: make(chan struct{}, 64)}
	cw := NewConnWriter(w)

	done := make(chan error, 3)
	go func() { done <- cw.SendVectored(benchResp(2, 1)) }()
	<-w.started // the vectored frame is now in its Write
	go func() { done <- cw.Send(&Ping{Nonce: 1}) }()
	go func() { done <- cw.SendVectored(benchResp(1, 2)) }()
	// Queued sends return once buffered; the stalled head Write holds
	// them in pending. Release everything and drain.
	for i := 0; i < 64; i++ {
		w.gate <- struct{}{}
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	_, data := w.snapshot()
	msgs := readAllFrames(t, data)
	if len(msgs) != 3 {
		t.Fatalf("got %d frames, want 3", len(msgs))
	}
	if _, ok := msgs[0].(*BatchResp); !ok {
		t.Fatalf("frame 0 is %T, want *BatchResp", msgs[0])
	}
	var sawPing, sawSecond bool
	for _, m := range msgs[1:] {
		switch mm := m.(type) {
		case *Ping:
			sawPing = mm.Nonce == 1
		case *BatchResp:
			sawSecond = len(mm.Values) == 3
		}
	}
	if !sawPing || !sawSecond {
		t.Fatalf("queued frames lost: ping=%v batch=%v", sawPing, sawSecond)
	}
}

// TestConnWriterStagedMatchesEncodeOrder mixes every way into the
// writer — Stage with occasional Push, Send, SendVectored — from
// concurrent goroutines. A shared lock orders the calls (so the encode
// order is known) but not the Writes, which the inline paths and the
// drain perform concurrently with later calls. The wire must carry
// exactly the frames Encode gives, in call order, none lost to a stage
// that was never pushed.
func TestConnWriterStagedMatchesEncodeOrder(t *testing.T) {
	const perG = 300
	var w blockingWriter
	cw := NewConnWriter(&w)
	var (
		mu   sync.Mutex
		sent []Message
		wg   sync.WaitGroup
	)
	call := func(g, i int) error {
		mu.Lock()
		defer mu.Unlock()
		n := uint64(len(sent))
		switch g {
		case 0, 1: // the server handler's shape: stage, push now and then
			m := &SetResp{Seq: n}
			sent = append(sent, m)
			if err := cw.Stage(m); err != nil {
				return err
			}
			if i%(3+g) == 0 {
				return cw.Push()
			}
			return nil
		case 2:
			m := &Ping{Nonce: n}
			sent = append(sent, m)
			return cw.Send(m)
		default:
			m := benchResp(1, 1)
			m.Batch = n
			sent = append(sent, m)
			return cw.SendVectored(m)
		}
	}
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := call(g, i); err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := cw.Push(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, m := range sent {
		want = append(want, Encode(m)...)
	}
	if _, got := w.snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("wire bytes differ from encode order: %d vs %d bytes", len(got), len(want))
	}
}

// TestConnWriterStageHoldsUntilPush: staged frames are not written — not
// even by a drain goroutine that happens to start late — until Push,
// which sends them all in one Write.
func TestConnWriterStageHoldsUntilPush(t *testing.T) {
	var w blockingWriter
	cw := NewConnWriter(&w)
	for i := 0; i < 8; i++ {
		if err := cw.Stage(&SetResp{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if writes, _ := w.snapshot(); writes != 0 {
		t.Fatalf("%d writes before Push, want 0", writes)
	}
	if err := cw.Push(); err != nil {
		t.Fatal(err)
	}
	writes, data := w.snapshot()
	if writes != 1 {
		t.Fatalf("Push made %d writes, want 1", writes)
	}
	if got := len(readAllFrames(t, data)); got != 8 {
		t.Fatalf("Push wrote %d frames, want 8", got)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnWriterStagePastBoundPushes stages more than maxPendingBytes
// without ever calling Push. No drain was woken, so a Stage that waited
// for backpressure would wait forever: instead the Stage that crosses
// the bound writes the staged bytes itself.
func TestConnWriterStagePastBoundPushes(t *testing.T) {
	var w blockingWriter
	cw := NewConnWriter(&w)
	big := &Set{Key: "k", Value: make([]byte, 1<<20)}
	const n = 2*maxPendingBytes/(1<<20) + 1
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := cw.Stage(big); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stage past maxPendingBytes deadlocked")
	}
	if writes, _ := w.snapshot(); writes == 0 {
		t.Fatal("no Write after staging past maxPendingBytes")
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, data := w.snapshot(); len(readAllFrames(t, data)) != n {
		t.Fatalf("frames lost staging past the bound")
	}
}

// A write error latched by Push is sticky: Push reports it, and so do
// every later Stage and Push.
func TestConnWriterPushStickyError(t *testing.T) {
	wantErr := errors.New("boom")
	w := &blockingWriter{err: wantErr}
	cw := NewConnWriter(w)
	if err := cw.Stage(&SetResp{Seq: 1}); err != nil {
		t.Fatalf("Stage before any write = %v, want nil", err)
	}
	if err := cw.Push(); !errors.Is(err, wantErr) {
		t.Fatalf("Push = %v, want %v", err, wantErr)
	}
	for i := 0; i < 3; i++ {
		if err := cw.Stage(&SetResp{Seq: 2}); !errors.Is(err, wantErr) {
			t.Fatalf("Stage after error = %v, want %v", err, wantErr)
		}
		if err := cw.Push(); !errors.Is(err, wantErr) {
			t.Fatalf("Push after error = %v, want %v", err, wantErr)
		}
	}
	if err := cw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want %v", err, wantErr)
	}
}

// Close writes frames that were staged and never pushed; Stage and Push
// after Close report ErrWriterClosed.
func TestConnWriterCloseDrainsStaged(t *testing.T) {
	var w blockingWriter
	cw := NewConnWriter(&w)
	for i := 0; i < 5; i++ {
		if err := cw.Stage(&SetResp{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	_, data := w.snapshot()
	msgs := readAllFrames(t, data)
	if len(msgs) != 5 {
		t.Fatalf("Close wrote %d staged frames, want 5", len(msgs))
	}
	for i, m := range msgs {
		if m.(*SetResp).Seq != uint64(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if err := cw.Stage(&SetResp{}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Stage after Close = %v, want ErrWriterClosed", err)
	}
	if err := cw.Push(); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Push after Close = %v, want ErrWriterClosed", err)
	}
}
