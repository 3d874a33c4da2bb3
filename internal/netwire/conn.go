package netwire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnOptions tunes a wrapped connection.
type ConnOptions struct {
	// MaxFrame bounds received (and sent) frame payloads; <= 0 means
	// DefaultMaxFrame.
	MaxFrame int64
	// Counter, when non-nil, accumulates the physical bytes this
	// connection puts on and takes off the wire (headers included) — the
	// framing-overhead meter.
	Counter *atomic.Int64
}

// Conn is a framed message connection. Send and Recv each take an
// explicit per-message deadline; Close is idempotent and safe to call
// concurrently with a blocked Send or Recv (which then returns an
// error).
type Conn struct {
	nc  net.Conn
	r   *bufio.Reader
	max int64
	ctr *atomic.Int64

	wmu  sync.Mutex
	wbuf []byte

	closeOnce sync.Once
	closeErr  error
}

// Wrap turns a net.Conn (plain TCP or TLS) into a framed message
// connection.
func Wrap(nc net.Conn, opts ConnOptions) *Conn {
	max := opts.MaxFrame
	if max <= 0 {
		max = DefaultMaxFrame
	}
	return &Conn{nc: nc, r: bufio.NewReader(nc), max: max, ctr: opts.Counter}
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Send frames and writes one envelope, encoding it straight into the
// connection's reused write buffer. timeout > 0 sets a write deadline
// for this message only.
func (c *Conn) Send(m *Msg, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [frameHeaderLen]byte
	buf, err := appendMsg(append(c.wbuf[:0], hdr[:]...), m)
	c.wbuf = buf
	if err != nil {
		return err
	}
	n := int64(len(buf) - frameHeaderLen)
	if n > c.max {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, c.max)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	if timeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	written, err := c.nc.Write(buf)
	if c.ctr != nil {
		c.ctr.Add(int64(written))
	}
	return err
}

// Recv reads and decodes one envelope. timeout > 0 sets a read deadline
// for this message only; 0 blocks until a frame arrives or the
// connection closes.
func (c *Conn) Recv(timeout time.Duration) (*Msg, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.nc.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	payload, err := ReadFrame(c.r, c.max)
	if err != nil {
		return nil, err
	}
	if c.ctr != nil {
		c.ctr.Add(int64(frameHeaderLen + len(payload)))
	}
	return DecodeMsg(payload)
}

// Close closes the underlying connection; a blocked Send or Recv
// returns promptly with an error.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}
