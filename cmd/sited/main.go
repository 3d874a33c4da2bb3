// Command sited is the site daemon of a multi-process deployment: it
// listens on a framed TCP socket and hosts one horizontal or vertical
// detection site, bootstrapped by the first driver hello (see
// internal/sitehost). Start one sited per site, then open the driver
// session with repro.WithTCPSites(addr0, addr1, ...).
//
// Usage:
//
//	sited [-addr 127.0.0.1:0] [-checkpoint-dir dir]
//	      [-tls-cert cert.pem -tls-key key.pem]
//
// With -checkpoint-dir the daemon persists its site state under dir and
// recovers the newest valid checkpoint on startup, so a killed and
// restarted daemon rejoins its session warm (the driver replays only
// the calls since the last checkpoint). A corrupt checkpoint is
// reported on stderr and the daemon starts empty — the driver reseeds
// in full; an unwritable or uncreatable dir is fatal.
//
// On startup the daemon prints exactly one line "listening <addr>" to
// stdout — scripts and the cross-process test harness parse it to learn
// the bound port when -addr ends in :0. SIGINT closes the listener,
// drains every connection, flushes the delta log and waits for a
// snapshot still being written before exiting; SIGTERM writes a final
// full checkpoint before that, so a graceful stop restarts with no log
// to replay.
package main

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/sitehost"
	"repro/internal/xerr"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	ckptDir := flag.String("checkpoint-dir", "", "persist site state under this directory and recover on startup")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (with -tls-key: serve TLS)")
	tlsKey := flag.String("tls-key", "", "TLS private key file")
	flag.Parse()

	var tlsCfg *tls.Config
	if *tlsCert != "" || *tlsKey != "" {
		if *tlsCert == "" || *tlsKey == "" {
			fatal(fmt.Errorf("-tls-cert and -tls-key must be given together"))
		}
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			fatal(err)
		}
		tlsCfg = &tls.Config{Certificates: []tls.Certificate{cert}}
	}

	host := sitehost.NewHost()
	if *ckptDir != "" {
		stats, err := host.UseCheckpoints(*ckptDir)
		switch {
		case errors.Is(err, xerr.ErrCheckpointCorrupt):
			// Recoverable: start empty, the driver reseeds in full.
			fmt.Fprintf(os.Stderr, "sited: checkpoint unusable, starting empty: %v\n", err)
		case err != nil:
			// An unwritable dir would lose every future checkpoint too.
			fatal(err)
		case stats.Recovered:
			fmt.Fprintf(os.Stderr, "sited: recovered checkpoint epoch %d (seq %d, %d log records replayed)\n",
				stats.Epoch, stats.LastSeq, stats.Replayed)
		}
	}

	srv, err := sitehost.Serve(host, *addr, tlsCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("listening %s\n", srv.Addr())
	os.Stdout.Sync()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	// Drain connections first, then snapshot: the final checkpoint then
	// provably captures the last served call.
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	if s == syscall.SIGTERM {
		if err := host.FinalCheckpoint(); err != nil {
			fatal(fmt.Errorf("final checkpoint: %w", err))
		}
	}
	if err := host.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sited:", err)
	os.Exit(1)
}
