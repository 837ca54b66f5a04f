// Fixtures for the stickyerr analyzer seen from a ConnWriter consumer.
package use

import "example.com/brbfix/internal/wire"

func Drop(w *wire.ConnWriter, m wire.Message) {
	w.Send(m)      // want `error discarded`
	_ = w.Flush()  // want `assigned to _`
	w.Stage(m)     // want `error discarded`
	defer w.Push() // want `defer Push`
}

func Checked(w *wire.ConnWriter, m wire.Message) error {
	if err := w.Send(m); err != nil {
		return err
	}
	if err := w.Stage(m); err != nil {
		return err
	}
	if err := w.Push(); err != nil {
		return err
	}
	return w.Flush()
}
