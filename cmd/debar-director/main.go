// Command debar-director runs the DEBAR director: job scheduling,
// metadata management and dedup-2 coordination (paper §3.1). Each job's
// runs and file indexes persist in a versioned journal in the required
// -data-dir (crash-recovered on open); a journal in another format is
// refused, not rewritten.
//
// Usage:
//
//	debar-director -listen :7700 -data-dir /var/lib/debar-director
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"debar/internal/director"
	"debar/internal/metastore"
	"debar/internal/obs"
)

func main() {
	listen := flag.String("listen", ":7700", "address to listen on")
	dataDir := flag.String("data-dir", "", "data directory for the metadata journal (required)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close metadata connections silent this long (0 = 5m, negative = never)")
	controlTimeout := flag.Duration("control-timeout", 0, "dial and per-I/O deadline for outbound dedup-2 triggers (0 = 10s, negative = none)")
	dedup2Timeout := flag.Duration("dedup2-timeout", 0, "how long to wait for a server's dedup-2 pass to finish (0 = 15m, negative = forever)")
	retries := flag.Int("retries", 0, "extra attempts for transient dedup-2 trigger failures (0 = 2, negative = no retries)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (empty = disabled)")
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "debar-director: -data-dir is required")
		flag.Usage()
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		log.Fatalf("debar-director: %v", err)
	}
	slog.SetDefault(logger)
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			log.Fatalf("debar-director: %v", err)
		}
		defer dbg.Close()
		logger.Info("debug listener started", "addr", dbg.Addr())
	}

	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		log.Fatalf("debar-director: %v", err)
	}
	ms, err := metastore.Open(filepath.Join(*dataDir, "meta.journal"), 0)
	if err != nil {
		log.Fatalf("debar-director: %v", err)
	}
	d, err := director.NewDurable(ms)
	if err != nil {
		log.Fatalf("debar-director: %v", err)
	}
	d.SetLogger(logger)
	d.IdleTimeout = *idleTimeout
	d.ControlTimeout = *controlTimeout
	d.Dedup2Timeout = *dedup2Timeout
	d.Retries = *retries
	addr, err := d.Serve(*listen)
	if err != nil {
		log.Fatalf("debar-director: %v", err)
	}
	log.Printf("debar-director: listening on %s (data dir %s)", addr, *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("debar-director: shutting down")
	if err := d.Close(); err != nil {
		log.Printf("debar-director: close: %v", err)
	}
	if err := ms.Close(); err != nil {
		log.Printf("debar-director: metastore close: %v", err)
	}
}
