// Command mbsp-served is the persistent scheduling service: a long-lived
// HTTP server over the anytime scheduler portfolio with a
// fingerprint-keyed schedule cache, single-flight deduplication and
// admission control.
//
// Usage:
//
//	mbsp-served [-addr :8035] [-cache-entries 1024] [-cache-path DIR]
//	            [-max-inflight 0] [-compute-timeout 60s] [-max-body 8388608]
//	            [-seed 1] [-node-limit 20000] [-workers 0] [-mip-workers 0]
//	            [-drain-timeout 30s] [-quiet]
//
// Endpoints:
//
//	POST /v1/schedule   body: DAG in the text format (see internal/graph);
//	                    query: p, r | rfactor, g, l, model=sync|async,
//	                    deadline_ms
//	GET  /v1/stats      cache, admission, persistence and request counters
//	GET  /healthz       liveness
//
// Repeat submissions of the same DAG and parameters are served from the
// schedule cache in microseconds, byte-identical to the original
// deterministic run. With -cache-path the cache is durable (crash-only:
// journal-on-store, snapshot-on-drain, recover-on-boot), so even a
// kill -9 restart comes back warm.
//
// SIGINT/SIGTERM drains in-flight requests before exiting (bounded by
// -drain-timeout); a second SIGINT/SIGTERM during the drain forces an
// immediate close and a nonzero exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mbsp/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8035", "listen address (host:port; port 0 picks a free port)")
		cacheEntries = flag.Int("cache-entries", 1024, "schedule cache capacity in entries (negative disables caching)")
		cachePath    = flag.String("cache-path", "", "directory for the durable schedule cache (empty: memory-only); recovered on boot, journaled on store, snapshotted on drain")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently computing portfolio runs; excess requests get 429 (0: GOMAXPROCS)")
		computeTO    = flag.Duration("compute-timeout", 60*time.Second, "server-side budget for one cold portfolio run")
		maxBody      = flag.Int64("max-body", 8<<20, "max request body bytes")
		seed         = flag.Int64("seed", 1, "portfolio seed (part of the cache key)")
		nodeLimit    = flag.Int("node-limit", server.DefaultNodeLimit, "branch-and-bound node budget; must be > 0 so results are deterministic and cacheable (part of the cache key)")
		maxRows      = flag.Int("max-model-rows", 0, "holistic-ILP model row cap: larger models skip tree search for the warm-start + local-search fallback (0: the solver default; part of the cache key). Lower it (e.g. 3000) to bound cold-request latency on mid-size DAGs")
		workers      = flag.Int("workers", 0, "portfolio candidate worker pool size (0: GOMAXPROCS); never changes results")
		mipWork      = flag.Int("mip-workers", 0, "worker pool inside each branch-and-bound tree (0: automatic); never changes results")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for draining in-flight requests")
		quiet        = flag.Bool("quiet", false, "suppress per-request portfolio logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "mbsp-served: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}

	srv, err := server.New(server.Config{
		CacheEntries:    *cacheEntries,
		CachePath:       *cachePath,
		MaxInflight:     *maxInflight,
		ComputeTimeout:  *computeTO,
		MaxRequestBytes: *maxBody,
		Seed:            *seed,
		ILPNodeLimit:    *nodeLimit,
		MaxModelRows:    *maxRows,
		Workers:         *workers,
		MIPWorkers:      *mipWork,
		Logf:            logf,
	})
	if err != nil {
		logger.Fatalf("opening server: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The resolved address is printed unconditionally (and first) so
	// scripts starting the server on port 0 can discover the port.
	logger.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// Manual signal channel (not NotifyContext): the second signal during
	// the drain must remain observable.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case sig := <-sigc:
		logger.Printf("received %v", sig)
	}

	logger.Printf("shutting down: draining in-flight requests (budget %v)", *drainTO)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- httpSrv.Shutdown(shutdownCtx) }()
	select {
	case err := <-drained:
		if err != nil {
			logger.Printf("shutdown path: drain incomplete (%v)", err)
		} else {
			logger.Printf("shutdown path: graceful drain complete")
		}
	case sig := <-sigc:
		// Impatient operator (or supervisor escalating): close now. The
		// durable cache is crash-only, so skipping the graceful drain
		// costs a snapshot rotation, never correctness.
		logger.Printf("shutdown path: second %v during drain, forcing immediate close", sig)
		httpSrv.Close()
		srv.Close()
		os.Exit(1)
	}
	srv.Close() // cancel + join background computations, drain the durable cache

	st := srv.Stats()
	logger.Printf("drained: %d requests served (%d cache hits, %d misses, %d coalesced, %d shed, %d degraded)",
		st.Requests.Completed, st.Cache.Hits, st.Cache.Misses, st.Cache.Coalesced,
		st.Admission.Shed, st.Requests.Degraded)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "mbsp-served: bye")
}
