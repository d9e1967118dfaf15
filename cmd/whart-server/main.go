// Command whart-server exposes the WirelessHART evaluation engine over
// HTTP. It solves scenario specs posted to /v1/evaluate, /v1/network and
// /v1/predict, caching solved scenarios in a bounded LRU and collapsing
// concurrent identical queries into a single DTMC solve. /v1/batch takes
// a list of scenarios at once: duplicates and cached sub-scenarios are
// served for free, and the residual misses are solved together, one
// batch per shared path structure.
//
// Usage:
//
//	whart-server [-addr :8080] [-workers N] [-cache N] [-structcache N]
//	             [-timeout 30s] [-tracebuf N] [-debug] [-logjson]
//	             [-id a -peers "b=http://host:8081,c=http://host:8082"]
//	             [-snapshot /var/lib/whart/cache.snap]
//
// Cluster mode: -id names this replica and -peers lists the others;
// every replica given the same membership computes the same consistent-
// hash ring over canonical scenario keys, forwards misses it does not
// own to their owner (POST /v1/peer/solve), and degrades to a local
// solve when that owner is unreachable. -snapshot restores the warm
// result cache on startup and writes it back on SIGTERM drain, so a
// restarted replica rejoins warm instead of stampeding the solver pool.
// /healthz stays pure liveness; /readyz reports ring membership and the
// snapshot-load state for rollout tooling.
//
// Observability: every solve is traced stage by stage into a bounded ring
// served at /debug/traces, and engine counters are exported both as JSON
// (/metrics) and in Prometheus text format (/metrics/prom). -logjson
// switches the process to structured JSON logs (log/slog) and mirrors
// each finished solve trace as one log record. -debug additionally mounts
// net/http/pprof under /debug/pprof/.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and flushing the trace stream before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/engine"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatalf("whart-server: %v", err)
	}

	logger := log.New(os.Stderr, "whart-server: ", log.LstdFlags)
	var slogger *slog.Logger
	if cfg.logJSON {
		slogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		logger = slog.NewLogLogger(slogger.Handler(), slog.LevelInfo)
	}
	var ring *cluster.Ring
	if cfg.id != "" {
		members := append(append([]cluster.Member(nil), cfg.peerList...), cluster.Member{ID: cfg.id})
		if ring, err = cluster.NewRing(cfg.id, members, 0); err != nil {
			log.Fatalf("whart-server: %v", err)
		}
	}
	eng := engine.New(engine.Config{
		Workers:         cfg.workers,
		CacheSize:       cfg.cache,
		StructCacheSize: cfg.structCache,
		TraceCapacity:   cfg.traceBuf,
		TraceLogger:     slogger,
		Ring:            ring,
	})
	// Restore the warm cache before serving: a rejected or missing
	// snapshot starts the replica cold, never dead, and /readyz reports
	// which happened.
	if cfg.snapshot != "" {
		switch n, err := loadSnapshotFile(eng, cfg.snapshot); {
		case errors.Is(err, fs.ErrNotExist):
			logger.Printf("snapshot %s absent; starting cold", cfg.snapshot)
		case err != nil:
			logger.Printf("snapshot %s rejected (%v); starting cold", cfg.snapshot, err)
		default:
			logger.Printf("snapshot %s restored %d cached results", cfg.snapshot, n)
		}
	}
	handler := engine.NewHandler(eng, cfg.timeout)
	if cfg.debug {
		handler = withPprof(handler)
	}
	startSnap := eng.MetricsSnapshot()
	logger.Printf("listening on %s (workers=%d cache=%d timeout=%s debug=%t)",
		ln.Addr(), startSnap.Workers, startSnap.CacheCap, cfg.timeout, cfg.debug)
	if ring != nil {
		logger.Printf("cluster replica %s in a %d-member ring", cfg.id, len(ring.Members()))
	}
	if err := serve(ctx, ln, handler, logger); err != nil {
		log.Fatalf("whart-server: %v", err)
	}
	// Drained: persist the warm cache, flush the trace stream and leave a
	// final accounting line.
	if cfg.snapshot != "" {
		if n, err := saveSnapshotFile(eng, cfg.snapshot); err != nil {
			logger.Printf("snapshot save to %s failed: %v", cfg.snapshot, err)
		} else {
			logger.Printf("snapshot %s saved with %d cached results", cfg.snapshot, n)
		}
	}
	eng.Traces().Flush()
	snap := eng.MetricsSnapshot()
	logger.Printf("served %d solves (%d cache hits, %d errors)", snap.Solves, snap.CacheHits, snap.Errors)
}

type config struct {
	addr        string
	workers     int
	cache       int
	structCache int
	traceBuf    int
	timeout     time.Duration
	debug       bool
	logJSON     bool

	id       string
	peers    string
	snapshot string
	peerList []cluster.Member
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("whart-server", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "max concurrent DTMC solves (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.cache, "cache", 0, "scenario cache capacity (0 = default 256)")
	fs.IntVar(&cfg.structCache, "structcache", 0, "path-structure cache capacity (0 = same as -cache)")
	fs.IntVar(&cfg.traceBuf, "tracebuf", 0, "solve traces retained for /debug/traces (0 = default 64)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request evaluation timeout (0 = none)")
	fs.BoolVar(&cfg.debug, "debug", false, "expose net/http/pprof under /debug/pprof/")
	fs.BoolVar(&cfg.logJSON, "logjson", false, "structured JSON logs, one record per solve trace")
	fs.StringVar(&cfg.id, "id", "", "this replica's stable cluster ID (enables cluster mode)")
	fs.StringVar(&cfg.peers, "peers", "", `peer replicas as "id=url,id=url" (requires -id)`)
	fs.StringVar(&cfg.snapshot, "snapshot", "", "warm-cache snapshot file: restored on startup, written on SIGTERM drain")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.workers < 0 || cfg.cache < 0 || cfg.structCache < 0 || cfg.traceBuf < 0 || cfg.timeout < 0 {
		return config{}, errors.New("workers, cache, structcache, tracebuf and timeout must be non-negative")
	}
	if cfg.peers != "" && cfg.id == "" {
		return config{}, errors.New("-peers requires -id")
	}
	var err error
	if cfg.peerList, err = parsePeers(cfg.peers, cfg.id); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// parsePeers parses the -peers list ("id=url,id=url"). The local ID must
// not reappear in it: membership is peers plus self, assembled in main.
func parsePeers(peers, selfID string) ([]cluster.Member, error) {
	if peers == "" {
		return nil, nil
	}
	var out []cluster.Member
	for _, part := range strings.Split(peers, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("peer %q: want id=url", part)
		}
		if id == selfID {
			return nil, fmt.Errorf("peer %q duplicates -id %q; list only the other replicas", part, selfID)
		}
		out = append(out, cluster.Member{ID: id, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q lists no peers", peers)
	}
	return out, nil
}

// loadSnapshotFile restores a warm-cache snapshot from path.
func loadSnapshotFile(eng *engine.Engine, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return eng.LoadSnapshot(f)
}

// saveSnapshotFile writes the warm cache to path via a same-directory
// temp file and rename, so a crash mid-write can never leave a torn
// snapshot where the next start would read it.
func saveSnapshotFile(eng *engine.Engine, path string) (int, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	n, err := eng.SaveSnapshot(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return n, os.Rename(tmp.Name(), path)
}

// withPprof mounts the net/http/pprof handlers next to the API. The API
// mux owns every other path (including /debug/traces), so profiling rides
// alongside without touching the engine's routes.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs handler on ln until ctx is canceled, then drains in-flight
// requests for up to 10 seconds. It owns and closes the listener.
func serve(ctx context.Context, ln net.Listener, handler http.Handler, logger *log.Logger) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
