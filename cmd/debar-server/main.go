// Command debar-server runs a DEBAR backup server: dedup-1 File Store and
// dedup-2 Chunk Store (paper §3.3). With -data-dir the server runs on the
// durable storage engine (internal/store): containers, disk index and
// chunk-log WAL live in the data directory and survive restarts, with
// crash recovery on open. Chunk-log and container appends are group
// committed: concurrent sessions share each fsync, and a chunk batch is
// acknowledged only once the fsync covering it has landed. Without
// -data-dir every store is in-memory.
//
// Usage:
//
//	debar-server -listen :7701 -director localhost:7700 -data-dir /var/lib/debar
package main

import (
	"flag"
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
	dir := flag.String("director", "", "director address (required for metadata)")
	indexBits := flag.Uint("index-bits", 0, "disk index bucket bits, 2^n buckets (0 = default: 18 in-memory; a data dir keeps its manifest geometry)")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory stores)")
	silWorkers := flag.Int("sil-workers", 0, "dedup-2 SIL workers: index regions scanned in parallel (0 = derive from GOMAXPROCS, 1 = serialized)")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections (and their backup sessions) silent this long (0 = 5m, negative = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-write deadline on client connections (0 = 2m, negative = none)")
	controlTimeout := flag.Duration("control-timeout", 0, "dial and per-I/O deadline for director control calls (0 = 10s, negative = none)")
	controlRetries := flag.Int("control-retries", 0, "extra attempts for transient director control-call failures (0 = 2, negative = no retries)")
	noInline := flag.Bool("no-inline-dedup", false, "do not advertise the inline-dedup capability: answer every fingerprint batch as a pre-capability server would")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (empty = disabled)")
	flag.Parse()

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
	if *indexBits == 0 && *dataDir == "" {
		// Memory-backed default stays 2^18 buckets; for a data dir an
		// unset flag must adopt the manifest's geometry instead of
		// conflicting with it.
		*indexBits = 18
	}

	srv, err := server.New(server.Config{
		Logger:         logger,
		DirectorAddr:   *dir,
		IndexBits:      *indexBits,
		DataDir:        *dataDir,
		SILWorkers:     *silWorkers,
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
	if *dataDir != "" {
		log.Printf("debar-server: listening on %s (director %q, data dir %s)", addr, *dir, *dataDir)
	} else {
		log.Printf("debar-server: listening on %s (director %q, in-memory stores)", addr, *dir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if err := srv.Close(); err != nil {
		log.Printf("debar-server: close: %v", err)
	}
}
