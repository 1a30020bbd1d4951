package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbsp/internal/server"
	"mbsp/internal/wire"
)

// liveServer is an in-process scheduling server on a loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
	timer  *handlerTimer
	nextID atomic.Int64
}

// handlerTimer wraps the server's handler. While on (traced segments
// only), it records each request's time inside the handler, keyed by the
// X-Perfbench-Id request header.
type handlerTimer struct {
	on  atomic.Bool
	mu  sync.Mutex
	dur map[string]time.Duration
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		t.mu.Lock()
		t.dur[req.Header.Get("X-Perfbench-Id")] = d
		t.mu.Unlock()
	})
}

// handlerMs is the recorded handler time of request id.
func (t *handlerTimer) handlerMs(id string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ms(t.dur[id])
}

// bootServer starts a server and waits until /healthz answers; the
// returned duration is the boot time (durable-cache recovery, listener,
// first round trip).
func bootServer(cfg server.Config) (*liveServer, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	timer := &handlerTimer{dur: map[string]time.Duration{}}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: timer.wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second},
		timer:  timer,
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
			Timeout:   90 * time.Second,
		},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	if _, err := ls.healthz(); err != nil {
		ls.stop()
		return nil, 0, err
	}
	return ls, time.Since(start), nil
}

// stop drains the handlers, closes the server (snapshotting the durable
// cache) and waits for the serve loop to return.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	ls.srv.Close()
	<-ls.served
	ls.client.CloseIdleConnections()
}

func (ls *liveServer) healthz() (time.Duration, error) {
	start := time.Now()
	resp, err := ls.client.Get(ls.base + "/healthz")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return time.Since(start), nil
}

// reply is one POST /v1/schedule outcome.
type reply struct {
	id        string // X-Perfbench-Id, the handler timer's key
	body      []byte
	latency   time.Duration
	elapsedMs float64 // X-Mbsp-Elapsed-Ms: the handler's time up to encoding
	err       error
}

func (ls *liveServer) schedule(k serveKey, body []byte) reply {
	id := strconv.FormatInt(ls.nextID.Add(1), 10)
	req, err := http.NewRequest(http.MethodPost, ls.base+"/v1/schedule?"+k.query(), bytes.NewReader(body))
	if err != nil {
		return reply{id: id, err: err}
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Perfbench-Id", id)
	start := time.Now()
	resp, err := ls.client.Do(req)
	if err != nil {
		return reply{id: id, err: err, latency: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{id: id, body: b, latency: time.Since(start), err: err}
	rp.elapsedMs, _ = strconv.ParseFloat(resp.Header.Get("X-Mbsp-Elapsed-Ms"), 64)
	if err == nil && resp.StatusCode != http.StatusOK {
		rp.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return rp
}

// stripStamp cuts the per-request cache stamp (the last field of the
// indented response) so bodies of different provenance compare equal.
func stripStamp(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(",\n  \"cache\": {")); i >= 0 {
		return body[:i]
	}
	return body
}

func decodeResponse(body []byte) (*wire.Response, error) {
	var resp wire.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
