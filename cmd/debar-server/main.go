// Command debar-server runs a DEBAR backup server: dedup-1 File Store and
// dedup-2 Chunk Store (paper §3.3), on the storage engine (internal/store)
// in the required -data-dir: containers, disk index and chunk-log WAL
// live there and survive restarts, with crash recovery on open.
// The chunk-log WAL and the container log each sync their appends in the
// background, concurrent sessions sharing each fsync, and a backup is
// reported complete only once an fsync covering every chunk it references
// has landed.
//
// Usage:
//
//	debar-server -listen :7701 -director localhost:7700 -data-dir /var/lib/debar
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"debar/internal/obs"
	"debar/internal/server"
)

func main() {
	listen := flag.String("listen", ":7701", "address to listen on")
	dir := flag.String("director", "", "director address (required)")
	indexBits := flag.Uint("index-bits", 0, "disk index bucket bits, 2^n buckets, for a new data dir (0 = store default 16; an existing data dir keeps its manifest geometry)")
	dataDir := flag.String("data-dir", "", "data directory for containers, disk index and chunk-log WAL (required)")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections (and their backup sessions) silent this long (0 = 5m, negative = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-write deadline on client connections (0 = 2m, negative = none)")
	controlTimeout := flag.Duration("control-timeout", 0, "dial and per-I/O deadline for director control calls (0 = 10s, negative = none)")
	controlRetries := flag.Int("control-retries", 0, "extra attempts for transient director control-call failures (0 = 2, negative = no retries)")
	noInline := flag.Bool("no-inline-dedup", false, "do not advertise the inline-dedup capability: answer fingerprint batches without probing the disk index")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (empty = disabled)")
	flag.Parse()
	if *dataDir == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "debar-server: -data-dir and -director are required")
		flag.Usage()
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		log.Fatalf("debar-server: %v", err)
	}
	slog.SetDefault(logger)
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			log.Fatalf("debar-server: %v", err)
		}
		defer dbg.Close()
		logger.Info("debug listener started", "addr", dbg.Addr())
	}

	srv, err := server.New(server.Config{
		Logger:         logger,
		DirectorAddr:   *dir,
		IndexBits:      *indexBits,
		DataDir:        *dataDir,
		IdleTimeout:    *idleTimeout,
		WriteTimeout:   *writeTimeout,
		ControlTimeout: *controlTimeout,
		ControlRetries: *controlRetries,

		DisableInlineDedup: *noInline,
	})
	if err != nil {
		log.Fatalf("debar-server: %v", err)
	}
	addr, err := srv.Serve(*listen)
	if err != nil {
		log.Fatalf("debar-server: %v", err)
	}
	log.Printf("debar-server: listening on %s (director %q, data dir %s)", addr, *dir, *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if err := srv.Close(); err != nil {
		log.Printf("debar-server: close: %v", err)
	}
}
