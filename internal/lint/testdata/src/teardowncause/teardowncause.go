// Package teardowncause is the teardowncause analyzer's fixture: mux
// methods returning raw connection errors versus the cause-aware shape.
package teardowncause

import (
	"fmt"
	"net"
)

// rawMux never consults a recorded failure cause: its raw returns are
// exactly the PR 5/6 flake class.
type rawMux struct {
	conn *net.TCPConn
}

func (m *rawMux) Exchange(buf []byte) error {
	_, err := m.conn.Read(buf)
	if err != nil {
		return err // want "raw connection error"
	}
	return nil
}

func (m *rawMux) Send(buf []byte) error {
	_, err := m.conn.Write(buf)
	if err != nil {
		return fmt.Errorf("send: %w", err) // want "raw connection error"
	}
	return nil
}

// Validate returns a non-I/O error: nothing to route through a cause.
func (m *rawMux) Validate(n int) error {
	if n < 0 {
		return fmt.Errorf("bad frame size %d", n)
	}
	return nil
}

// causeMux records and consults its failure cause before surfacing
// connection errors — the two-phase teardown discipline.
type causeMux struct {
	conn   *net.TCPConn
	failed error
}

func (m *causeMux) Exchange(buf []byte) error {
	_, err := m.conn.Read(buf)
	if err != nil {
		if m.failed != nil {
			return m.failed
		}
		return err
	}
	return nil
}

// reader is not a mux or deployment type: raw returns are its caller's
// concern.
type reader struct {
	conn *net.TCPConn
}

func (r *reader) ReadAll(buf []byte) (int, error) {
	n, err := r.conn.Read(buf)
	return n, err
}

// The bundle codecs are connection I/O too: a mux surfacing their errors
// without consulting its recorded cause is the same flake class.
func readBundle(c *net.TCPConn, buf []byte) (int, error) {
	return c.Read(buf)
}

func writeBundle(c *net.TCPConn, buf []byte) (int, error) {
	return c.Write(buf)
}

func (m *rawMux) RecvBundle(buf []byte) (int, error) {
	n, err := readBundle(m.conn, buf)
	return n, err // want "raw connection error"
}

func (m *rawMux) SendBundle(buf []byte) error {
	_, err := writeBundle(m.conn, buf)
	if err != nil {
		return fmt.Errorf("send bundle: %w", err) // want "raw connection error"
	}
	return nil
}

func (m *causeMux) RecvBundle(buf []byte) (int, error) {
	n, err := readBundle(m.conn, buf)
	if err != nil {
		if m.failed != nil {
			return n, m.failed
		}
		return n, err
	}
	return n, nil
}

// rawMeshNode: the exported mesh endpoint type is held to the same rule
// as the mux and deployment types.
type rawMeshNode struct {
	conn *net.TCPConn
}

func (n *rawMeshNode) send(buf []byte) error {
	_, err := writeBundle(n.conn, buf)
	return err // want "raw connection error"
}

// A demux that hands the reader's error back raw, wrapped or not, reports
// the induced EOF of a teardown instead of its cause.
func (n *rawMeshNode) readLoop(buf []byte) error {
	if _, err := readBundle(n.conn, buf); err != nil {
		return fmt.Errorf("demux: %w", err) // want "raw connection error"
	}
	return nil
}
