package session

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/sitehost"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// selfSigned builds an in-memory self-signed certificate for 127.0.0.1:
// the daemons' server config and the driver's client config trusting it.
func selfSigned(t *testing.T) (server, client *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	server = &tls.Config{Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}}}
	client = &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	return server, client
}

// serveTLSHosts starts n in-process site daemons that accept only TLS.
func serveTLSHosts(t *testing.T, n int, cfg *tls.Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); srv.Host().Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// countingConn counts the raw bytes a dialed connection carries and
// keeps the first byte the driver wrote on it.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
	first *atomic.Int32 // first byte written, -1 until then
}

func (c *countingConn) Write(p []byte) (int, error) {
	if len(p) > 0 {
		c.first.CompareAndSwap(-1, int32(p[0]))
	}
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// TestTCPTLS runs each distributed engine over two TLS-only daemons: V
// equals a fresh centralized Detect and the meters equal a loopback
// session's, TLS only adds physical bytes. Composed with WithTCPDialer,
// the TLS records ride on the dialer's connections: every one opens with
// a TLS handshake record, and they carry more raw bytes than the
// plaintext frames the transport metered.
func TestTCPTLS(t *testing.T) {
	serverTLS, clientTLS := selfSigned(t)
	gen := workload.NewSized(workload.TPCH, 42, 600)
	rules := gen.Rules(5)
	rel := gen.Relation(200)
	for _, kind := range []string{"horizontal", "vertical"} {
		t.Run(kind, func(t *testing.T) {
			var (
				raw   atomic.Int64
				mu    sync.Mutex
				conns []*countingConn
			)
			dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
				nc, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				c := &countingConn{Conn: nc, bytes: &raw, first: new(atomic.Int32)}
				c.first.Store(-1)
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
				return c, nil
			}
			loop := mustOpen(t, rel, rules, styleOption(kind, rel.Schema, 2))
			sess := mustOpen(t, rel, rules, styleOption(kind, rel.Schema, 2),
				WithTCPSites(serveTLSHosts(t, 2, serverTLS)...), WithTCPTLS(clientTLS), WithTCPDialer(dialer))

			mirror := rel.Clone()
			for step := 0; step < 3; step++ {
				updates := gen.Updates(mirror, 20, 0.6)
				for _, s := range []*Session{loop, sess} {
					if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
						t.Fatalf("step %d: ApplyBatch: %v", step, err)
					}
				}
				if err := updates.Normalize().Apply(mirror); err != nil {
					t.Fatal(err)
				}
				if !sess.Violations().Equal(centralized.Detect(mirror, rules)) {
					t.Fatalf("step %d: TLS session V diverged from centralized Detect", step)
				}
				if ls, ts := loop.Stats(), sess.Stats(); !metersEqual(ls, ts) {
					t.Fatalf("step %d: meters diverged:\nloopback: %+v\ntls:      %+v", step, ls, ts)
				}
			}

			mu.Lock()
			defer mu.Unlock()
			if len(conns) < 2 {
				t.Fatalf("dialer opened %d connections for 2 sites", len(conns))
			}
			for i, c := range conns {
				// 0x16 is the TLS handshake record type: the ClientHello.
				if f := c.first.Load(); f != 0x16 {
					t.Errorf("connection %d opened with byte %#x, not a TLS handshake record", i, f)
				}
			}
			if frames := sess.Cluster().FrameBytes(); raw.Load() <= frames {
				t.Errorf("dialer's connections carried %d raw bytes, not more than the %d plaintext frame bytes", raw.Load(), frames)
			}
		})
	}
}

// TestTCPTLSRequiredByServer: a driver without WithTCPTLS facing
// TLS-only daemons fails Open with ErrSiteDown within its retry budget
// instead of hanging.
func TestTCPTLSRequiredByServer(t *testing.T) {
	serverTLS, _ := selfSigned(t)
	gen := workload.NewSized(workload.TPCH, 42, 300)
	rel := gen.Relation(100)
	start := time.Now()
	s, err := Open(rel, gen.Rules(3), WithHorizontal(partition.HashHorizontal("c_name", 2)),
		WithTCPSites(serveTLSHosts(t, 2, serverTLS)...), WithTCPRetryBudget(200*time.Millisecond))
	if err == nil {
		s.Close()
		t.Fatal("plaintext driver opened a session on TLS-only daemons")
	}
	if !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("Open = %v, want ErrSiteDown", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Open took %v to fail", d)
	}
}
