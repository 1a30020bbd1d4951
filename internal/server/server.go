// Package server implements the persistent scheduling service: an
// HTTP/JSON surface over the anytime scheduler portfolio with a
// fingerprint-keyed schedule cache, single-flight request coalescing,
// and admission control.
//
// Endpoints:
//
//	POST /v1/schedule   body: DAG in the graph.Write text format;
//	                    query: p, r | rfactor, g, l, model, deadline_ms
//	GET  /v1/stats      cache / admission / request counters as JSON
//	GET  /healthz       liveness
//
// A request is resolved in this order: cache hit (microseconds, no
// compute), joining an identical in-flight computation (single-flight),
// or a fresh portfolio run admitted against the in-flight cap. When the
// cap is reached the request is shed with 429 + Retry-After instead of
// queueing unboundedly. A per-request deadline maps onto the portfolio's
// anytime contract: if it fires before the (shared) computation
// finishes, the request degrades to the synchronous two-stage fallback
// ladder and returns a valid schedule with a degraded-rung certificate —
// never a 500 — while the computation keeps running to populate the
// cache.
//
// The server always runs the portfolio in its deterministic
// configuration (fixed seed, node-limited search, sealed incumbent, no
// per-candidate wall clocks), and only full-fidelity results — rung
// "portfolio", no degraded candidates, not interrupted — are cached, so
// a cache hit is byte-identical to a fresh run with the same options;
// see DESIGN.md ("Scheduling as a service").
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mbsp/internal/dnc"
	"mbsp/internal/faultinject"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/persist"
	"mbsp/internal/portfolio"
	"mbsp/internal/schedcache"
	"mbsp/internal/wire"
)

// Compute runs the scheduling portfolio for one admitted request. It is
// a Config hook so tests can substitute slow or failing computations.
type Compute func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error)

// Config configures a Server.
type Config struct {
	// CacheEntries is the exact entry bound of the schedule cache (0:
	// schedcache.DefaultEntries; negative: disable caching, keep
	// single-flight).
	CacheEntries int
	// CachePath, when set, makes the schedule cache durable: every
	// stored entry is journaled to this directory (fsync-on-append), a
	// graceful drain rotates the contents into a snapshot, and boot
	// recovers whatever a crash or kill left behind — re-validated
	// against the current configuration before being served. Empty
	// keeps the cache memory-only.
	CachePath string
	// PersistInject threads the deterministic filesystem fault modes
	// (torn/short/flip) into the persistence writers: chaos harnesses
	// and tests. nil injects nothing.
	PersistInject *faultinject.Injector
	// MaxInflight bounds concurrently admitted portfolio runs; excess
	// cold requests are shed with 429. 0 selects GOMAXPROCS.
	MaxInflight int
	// ComputeTimeout is the server-side budget for one admitted
	// portfolio run (independent of any per-request deadline, so a
	// short-deadline request cannot starve the cache of the full-fidelity
	// result its computation was already paying for). Default 60s.
	ComputeTimeout time.Duration
	// MaxRequestBytes caps the request body. Default 8 MiB.
	MaxRequestBytes int64

	// Seed, ILPNodeLimit, MaxModelRows, MIPWorkers and Workers pin the
	// deterministic portfolio configuration: the portfolio's ILP.Seed,
	// ILP.NodeLimit, ILP.MaxModelRows, ILP.MIPWorkers and Workers. Seed,
	// ILPNodeLimit and MaxModelRows are part of the cache key (worker
	// counts never change results). Seed defaults to 1; ILPNodeLimit to DefaultNodeLimit (it
	// must be > 0 — wall-clock-budgeted searches are not cacheable);
	// MaxModelRows to mip.DefaultMaxModelRows. Since the sparse LU core
	// the default admits holistic models of thousands of rows, whose
	// tree searches take seconds of CPU per cold request — set
	// MaxModelRows lower (the dense-era 3000 is a good latency-bound
	// choice) when cold-request latency matters more than schedule
	// quality on mid-size DAGs; oversized models fall back to the
	// warm-start + local-search path as before.
	Seed         int64
	ILPNodeLimit int
	MaxModelRows int
	MIPWorkers   int
	Workers      int

	// Compute overrides the portfolio runner (tests). Default
	// portfolio.RunAnytime.
	Compute Compute
	// Logf receives progress and error messages. Default: discard.
	Logf func(format string, args ...interface{})
}

// DefaultNodeLimit is the branch-and-bound node budget used when
// Config.ILPNodeLimit is 0: deep enough to close the registry-scale
// instances, small enough to bound a cold request's latency.
const DefaultNodeLimit = 20000

// partitionMemoEntries caps the nodes plus edges of the DAGs whose
// divide-and-conquer partitions one server remembers (a few MB at most).
const partitionMemoEntries = 1 << 18

// maxProcs is the largest processor count a request may ask for. Every
// scheduler allocates per-processor state before it looks at the DAG, so
// an unbounded p lets a three-node body cost hundreds of megabytes.
const maxProcs = 1024

func (c Config) withDefaults() Config {
	if c.MaxInflight == 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 1
	}
	if c.ComputeTimeout <= 0 {
		c.ComputeTimeout = 60 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ILPNodeLimit <= 0 {
		c.ILPNodeLimit = DefaultNodeLimit
	}
	if c.MaxModelRows <= 0 {
		c.MaxModelRows = mip.DefaultMaxModelRows
	}
	if c.Compute == nil {
		c.Compute = portfolio.RunAnytime
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// Server is the scheduling service. Create with New, expose via
// Handler, stop with Close (after http.Server.Shutdown has drained the
// handlers).
type Server struct {
	cfg     Config
	cache   *schedcache.Cache[*wire.Response]
	persist *cachePersister // nil when CachePath is empty
	// partitions serves the dnc candidate's partitioning stage across
	// this server's requests on the same DAG; it lives as long as the
	// server and is never persisted.
	partitions *dnc.Memo

	admit chan struct{} // admission semaphore, cap MaxInflight

	baseCtx  context.Context // cancels in-flight computes on Close
	stop     context.CancelFunc
	computes sync.WaitGroup // outstanding background computations

	start time.Time

	requests  atomic.Int64 // POST /v1/schedule requests accepted for processing
	shed      atomic.Int64 // requests rejected with 429
	degraded  atomic.Int64 // responses served via the deadline fallback
	errored   atomic.Int64 // 4xx/5xx responses other than 429
	inflight  atomic.Int64 // currently admitted portfolio runs
	completed atomic.Int64 // 200 responses

	// coldEWMA holds the float64 bits of an exponentially-weighted
	// moving average of recent cold-run durations (seconds); 0 means no
	// sample yet. It feeds the Retry-After header on 429s.
	coldEWMA atomic.Uint64
}

// New returns a Server ready to serve. The only error source is the
// durable-cache store (Config.CachePath): opening or recovering it can
// fail on real I/O errors. On-disk corruption is not an error — it
// degrades to a counted cold start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      schedcache.New[*wire.Response](schedcache.Config{Entries: cfg.CacheEntries}),
		partitions: dnc.NewMemo(partitionMemoEntries),
		admit:      make(chan struct{}, cfg.MaxInflight),
		baseCtx:    ctx,
		stop:       stop,
		start:      time.Now(),
	}
	if cfg.CachePath != "" {
		p, err := openPersistence(cfg.CachePath, persist.Options{Inject: cfg.PersistInject},
			s.cache, s.validateRecovered, cfg.Logf)
		if err != nil {
			stop()
			return nil, err
		}
		s.persist = p
	}
	return s, nil
}

// Close cancels and waits for any background computations, then drains
// the durable cache (snapshot rotation + store close) if one is
// configured. Call it after http.Server.Shutdown has drained the
// handlers; Close does not drain them itself.
func (s *Server) Close() {
	s.stop()
	s.computes.Wait()
	if s.persist != nil {
		s.persist.drain(s.cache)
	}
}

// Handler returns the HTTP handler for all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// errOverloaded marks a computation that was never admitted: every
// request sharing it is shed with 429.
var errOverloaded = errors.New("server: at in-flight capacity")

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	if status != http.StatusTooManyRequests {
		s.errored.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// request is one parsed scheduling request.
type request struct {
	g        *graph.DAG
	arch     mbsp.Arch
	model    mbsp.CostModel
	deadline time.Duration
	key      string
}

// parseRequest reads the DAG body and the architecture query parameters.
func (s *Server) parseRequest(r *http.Request) (*request, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes)
	g, err := graph.Read(body)
	if err != nil {
		var pe *graph.ParseError
		switch {
		case errors.As(err, &pe), errors.Is(err, graph.ErrCyclic):
			return nil, &httpError{http.StatusBadRequest, "bad DAG: " + err.Error()}
		default:
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, &httpError{http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes)}
			}
			return nil, &httpError{http.StatusBadRequest, "reading DAG: " + err.Error()}
		}
	}
	q := r.URL.Query()
	bad := func(name string) error {
		return &httpError{http.StatusBadRequest, fmt.Sprintf("bad %s=%q", name, q.Get(name))}
	}
	// num parses a whole query value as a finite number.
	num := func(name string, def float64) (float64, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, bad(name)
		}
		return f, nil
	}
	p := 4
	if v := q.Get("p"); v != "" {
		if p, err = strconv.Atoi(v); err != nil {
			return nil, bad("p")
		}
		if p > maxProcs {
			return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("p=%d exceeds the %d-processor limit", p, maxProcs)}
		}
	}
	gcost, err := num("g", 1)
	if err != nil {
		return nil, err
	}
	lcost, err := num("l", 10)
	if err != nil {
		return nil, err
	}
	rfac, err := num("rfactor", 3)
	if err != nil {
		return nil, err
	}
	// r absent or 0 means rfactor·r0; a negative r is an error, not 0.
	rabs, err := num("r", 0)
	if err != nil || rabs < 0 {
		return nil, bad("r")
	}
	rv := rfac * g.MinCache()
	if rabs > 0 {
		rv = rabs
	}
	arch := mbsp.Arch{P: p, R: rv, G: gcost, L: lcost}
	if err := arch.Validate(); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	model := mbsp.Sync
	switch q.Get("model") {
	case "", "sync":
	case "async":
		model = mbsp.Async
	default:
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("bad model=%q (sync|async)", q.Get("model"))}
	}
	var deadline time.Duration
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := num("deadline_ms", 0)
		if err != nil || ms < 0 {
			return nil, bad("deadline_ms")
		}
		// Cap in float space: a huge finite value would overflow Duration.
		deadline = s.cfg.ComputeTimeout
		if d := ms * float64(time.Millisecond); d < float64(deadline) {
			deadline = time.Duration(d)
		}
	}
	req := &request{g: g, arch: arch, model: model, deadline: deadline}
	req.key = s.cacheKey(req)
	return req, nil
}

// cacheKey is the canonical identity of a request: DAG fingerprint and
// exact digest, architecture, cost model, and the salient deterministic
// portfolio options. The per-request deadline is deliberately absent —
// it changes how long a requester waits, never the full-fidelity result.
func (s *Server) cacheKey(req *request) string {
	return keyString(
		fmt.Sprintf("%016x", req.g.Fingerprint()), fmt.Sprintf("%016x", req.g.ExactDigest()),
		req.arch.P, req.arch.R, req.arch.G, req.arch.L,
		wire.ModelName(req.model), s.cfg.Seed, s.cfg.ILPNodeLimit, s.cfg.MaxModelRows)
}

// keyString is the single definition of the cache-key equation, shared
// by the live request path (cacheKey) and boot-time re-validation of
// recovered entries (validateRecovered) so the two cannot drift apart.
// MaxModelRows is part of the key: it decides whether a mid-size model
// gets tree search or the fallback path, so servers with different caps
// must not share entries.
func keyString(fingerprint, digest string, p int, r, g, l float64, model string, seed int64, nodeLimit, maxRows int) string {
	return fmt.Sprintf("%s/%s/p%d,r%g,g%g,L%g/%s/seed%d,nodes%d,rows%d",
		fingerprint, digest, p, r, g, l, model, seed, nodeLimit, maxRows)
}

// portfolioOptions is the deterministic configuration every computation
// runs under (see the package comment for why wall clocks are disabled).
func (s *Server) portfolioOptions(model mbsp.CostModel) portfolio.Options {
	return portfolio.Options{
		Workers:          s.cfg.Workers,
		SchedulerTimeout: -1, // the compute context is the only wall clock
		ILP: ilpsched.Options{
			Model:        model,
			Seed:         s.cfg.Seed,
			TimeLimit:    s.cfg.ComputeTimeout,
			NodeLimit:    s.cfg.ILPNodeLimit,
			MaxModelRows: s.cfg.MaxModelRows,
			MIPWorkers:   s.cfg.MIPWorkers,
		},
		PartitionMemo: s.partitions,
		Logf:          s.cfg.Logf,
	}
}

// cacheable reports whether resp is a full-fidelity deterministic
// answer: produced by the portfolio itself, with no candidate cut
// mid-search and no interruption, carrying a schedule and no per-request
// stamp. Anything else is timing-dependent and must not be served to
// future requests. It gates both the live store path and boot recovery,
// whose records are untrusted input — hence the nil checks.
func cacheable(resp *wire.Response) bool {
	if resp == nil || resp.Schedule == "" || resp.Cache != nil {
		return false
	}
	cert := resp.Certificate
	return cert != nil && cert.Rung == portfolio.RungPortfolio &&
		!cert.Interrupted && len(cert.Degraded) == 0
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	req, err := s.parseRequest(r)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			s.writeError(w, he.status, "%s", he.msg)
		} else {
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.requests.Add(1)

	// One cache call: a hit is served before any admission or deadline
	// machinery, so hits stay microseconds even under overload; a miss
	// joins or leads the key's computation.
	resp, pending, lead := s.cache.Lookup(req.key)
	if pending == nil {
		s.respond(w, started, resp, req.key, "hit", true)
		return
	}

	// Request context: caller disconnect plus the optional deadline.
	rctx := r.Context()
	if req.deadline > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, req.deadline)
		defer cancel()
	}

	provenance := "coalesced"
	if lead {
		provenance = "cold"
		select {
		case s.admit <- struct{}{}:
			s.startCompute(req, pending)
		default:
			// At capacity: shed this computation. Followers waiting on
			// it are shed too — they would otherwise queue unboundedly
			// behind a computation that is not running.
			s.cache.Complete(req.key, pending, nil, errOverloaded, false)
		}
	}

	select {
	case <-pending.Done():
		resp, ferr := pending.Result()
		switch {
		case ferr == nil:
			s.respond(w, started, resp, req.key, provenance, false)
		case errors.Is(ferr, errOverloaded):
			s.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
			s.writeError(w, http.StatusTooManyRequests, "%v", ferr)
		default:
			// The portfolio returns an error only when the instance
			// admits no valid schedule at all: a client problem.
			s.writeError(w, http.StatusUnprocessableEntity, "scheduling failed: %v", ferr)
		}
	case <-rctx.Done():
		// The per-request deadline (or a client disconnect) fired before
		// the shared computation finished. Anytime contract: degrade to
		// the synchronous fallback — the expired context makes
		// RunAnytime skip the race and return its deterministic
		// two-stage baseline — while the computation keeps running for
		// the cache.
		s.respondDegraded(w, started, req, rctx)
	}
}

// startCompute runs the portfolio for req in the background under the
// server's compute budget and completes p, journaling a result it stores
// first, so no answer is sent from an entry that is not yet durable. It
// owns releasing the admission slot.
func (s *Server) startCompute(req *request, p *schedcache.Pending[*wire.Response]) {
	s.computes.Add(1)
	s.inflight.Add(1)
	go func() {
		defer s.computes.Done()
		defer s.inflight.Add(-1)
		defer func() { <-s.admit }()
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeTimeout)
		defer cancel()
		computeStart := time.Now()
		res, err := s.cfg.Compute(ctx, req.g, req.arch, s.portfolioOptions(req.model))
		s.observeCold(time.Since(computeStart))
		var resp *wire.Response
		if err != nil {
			s.cfg.Logf("server: compute %s failed: %v", req.key, err)
		} else if resp, err = wire.FromResult(req.g, req.arch, req.model, res); err == nil && !cacheable(resp) {
			// Serve the anytime result to the requests waiting on it,
			// but keep it out of the cache: it is not the deterministic
			// full-fidelity answer.
			s.cfg.Logf("server: %s computed non-cacheable (rung=%s)", req.key, resp.Certificate.Rung)
		}
		store := err == nil && cacheable(resp) && s.cfg.CacheEntries >= 0
		if store && s.persist != nil {
			s.persist.journalStore(req.key, resp)
		}
		s.cache.Complete(req.key, p, resp, err, store)
	}()
}

// observeCold folds one cold-run duration into the EWMA behind the
// Retry-After header. 0.8/0.2 blending: a few recent runs dominate, so
// the hint tracks the current workload mix rather than boot-time
// history. Lock-free CAS loop; a lost race just drops one sample.
func (s *Server) observeCold(d time.Duration) {
	secs := d.Seconds()
	for {
		old := s.coldEWMA.Load()
		next := secs
		if old != 0 {
			next = float64(0.8*math.Float64frombits(old)) + float64(0.2*secs)
		}
		if s.coldEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSecs derives the Retry-After hint for a shed request from
// the cold-run EWMA, rounded up and clamped to [1, 30] seconds: long
// enough that a retry has a chance of finding a free slot, short enough
// that clients do not park for minutes because one huge instance
// happened by. No samples yet (cold boot straight into overload) falls
// back to 1s, the old hard-coded hint.
func (s *Server) retryAfterSecs() int {
	bits := s.coldEWMA.Load()
	if bits == 0 {
		return 1
	}
	secs := int(math.Ceil(math.Float64frombits(bits)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// respondDegraded serves the anytime fallback for a request whose
// deadline fired mid-computation. The fallback is synchronous,
// deterministic and cheap (one greedy two-stage pass), so even a
// deadline of a millisecond yields a valid certified schedule.
func (s *Server) respondDegraded(w http.ResponseWriter, started time.Time, req *request, rctx context.Context) {
	res, err := portfolio.RunAnytime(rctx, req.g, req.arch, s.portfolioOptions(req.model))
	if err != nil {
		// Only reachable when the instance admits no valid schedule.
		s.writeError(w, http.StatusUnprocessableEntity, "scheduling failed: %v", err)
		return
	}
	resp, werr := wire.FromResult(req.g, req.arch, req.model, res)
	if werr != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", werr)
		return
	}
	s.degraded.Add(1)
	s.respond(w, started, resp, req.key, "deadline-degraded", false)
}

// respond writes a 200 response, stamping per-request cache provenance
// and the elapsed-time header (kept out of the body so cached bodies
// are byte-identical).
func (s *Server) respond(w http.ResponseWriter, started time.Time, resp *wire.Response, key, provenance string, hit bool) {
	stamped := *resp
	stamped.Cache = &wire.CacheInfo{Hit: hit, Provenance: provenance, Key: key}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mbsp-Elapsed-Ms", fmt.Sprintf("%.3f", float64(time.Since(started))/float64(time.Millisecond)))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&stamped); err != nil {
		s.cfg.Logf("server: writing response: %v", err)
		return
	}
	s.completed.Add(1)
}

// StatsSnapshot is the GET /v1/stats payload.
type StatsSnapshot struct {
	Cache     schedcache.Stats `json:"cache"`
	Admission struct {
		MaxInflight int   `json:"max_inflight"`
		Inflight    int64 `json:"inflight"`
		Shed        int64 `json:"shed"`
		// RetryAfterSeconds is the hint the next shed request would
		// receive (EWMA of recent cold-run durations, clamped [1,30]).
		RetryAfterSeconds int `json:"retry_after_seconds"`
	} `json:"admission"`
	Persistence PersistenceStats `json:"persistence"`
	// PartitionMemo counts the dnc partitions served from (hits) and
	// computed for (misses) the server's partition memo, and the
	// partitions it holds (entries).
	PartitionMemo dnc.MemoStats `json:"partition_memo"`
	Requests      struct {
		Accepted  int64 `json:"accepted"`
		Completed int64 `json:"completed"`
		Degraded  int64 `json:"degraded"`
		Errored   int64 `json:"errored"`
	} `json:"requests"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats returns a point-in-time snapshot of the server counters.
func (s *Server) Stats() StatsSnapshot {
	var st StatsSnapshot
	st.Cache = s.cache.Stats()
	st.Admission.MaxInflight = s.cfg.MaxInflight
	st.Admission.Inflight = s.inflight.Load()
	st.Admission.Shed = s.shed.Load()
	st.Admission.RetryAfterSeconds = s.retryAfterSecs()
	if s.persist != nil {
		st.Persistence = s.persist.stats()
	}
	st.PartitionMemo = s.partitions.Stats()
	st.Requests.Accepted = s.requests.Load()
	st.Requests.Completed = s.completed.Load()
	st.Requests.Degraded = s.degraded.Load()
	st.Requests.Errored = s.errored.Load()
	st.UptimeSeconds = time.Since(s.start).Seconds()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}
