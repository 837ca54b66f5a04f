// Package wire mirrors the real internal/wire surface the analyzers
// key on (the import-path suffix is what they match): pooled Frames,
// zero-copy DecodeAlias, the Message interface, and the sticky-error
// ConnWriter.
package wire

import "errors"

// Frame stands in for a pooled receive buffer.
type Frame struct{ buf []byte }

func NewFrame(b []byte) *Frame { return &Frame{buf: b} }

func (f *Frame) Bytes() []byte { return f.buf }

func (f *Frame) Release() { f.buf = nil }

// Message is the decoded-message interface.
type Message interface {
	Kind() uint8
}

// Echo is a concrete message whose string/byte fields alias the frame.
type Echo struct {
	Name    string
	Payload []byte
	Addrs   []string
	Seq     uint64
}

func (*Echo) Kind() uint8 { return 1 }

// DecodeAlias decodes b without copying: the result aliases b.
func DecodeAlias(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, errors.New("wire: empty frame")
	}
	return &Echo{Name: string(b[:1]), Payload: b}, nil
}

// ConnWriter latches its first error, like the real coalescing writer.
type ConnWriter struct{ err error }

func (w *ConnWriter) Send(m Message) error { return w.err }

func (w *ConnWriter) Flush() error { return w.err }

func (w *ConnWriter) Stage(m Message) error { return w.err }

func (w *ConnWriter) Push() error { return w.err }
