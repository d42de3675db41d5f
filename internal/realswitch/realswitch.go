// Package realswitch is the live-network twin of internal/svcswitch: a
// real HTTP reverse proxy that routes requests to backend servers over
// TCP using the same service-configuration-file format (Table 3). It
// routes through the same svcswitch.Router core as the simulated switch
// — the same policy, weighted-round-robin rotation, passive health and
// retry walk — demonstrating that SODA's request switching logic is not
// an artefact of the simulator: the same policy drives genuine
// connections. It backs cmd/sodactl and the realproxy example.
//
// The data plane is lock-free on the request path for the built-in
// policies: the router publishes immutable route tables through an
// atomic pointer, RCU-style, a pick is one atomic cursor increment, and
// per-backend statistics are atomic cells. What the proxy adds is the
// HTTP side: prebuilt reverse proxies over one tuned transport, the
// retry cap and idempotency gate, and wall-clock request tracing.
package realswitch

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/reqtrace"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// The shared backend transport's pool and timeouts. net/http's default of
// two idle connections per host would force a TCP redial on almost every
// concurrent request.
const (
	// MaxIdleConnsPerHost bounds the kept-alive connection pool per
	// backend, the dominant throughput knob under concurrency.
	MaxIdleConnsPerHost = 64
	// maxIdleConns bounds the pool across all backends.
	maxIdleConns = 512
	// dialTimeout bounds TCP connection establishment.
	dialTimeout = 5 * time.Second
	// responseHeaderTimeout bounds the wait for a backend's response
	// headers.
	responseHeaderTimeout = 30 * time.Second
	// idleConnTimeout closes kept-alive connections idle this long.
	idleConnTimeout = 90 * time.Second
)

// newTransport returns the shared http.Transport all backend proxies use.
func newTransport() *http.Transport {
	d := &net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}
	return &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           d.DialContext,
		MaxIdleConns:          maxIdleConns,
		MaxIdleConnsPerHost:   MaxIdleConnsPerHost,
		IdleConnTimeout:       idleConnTimeout,
		ResponseHeaderTimeout: responseHeaderTimeout,
	}
}

// RetryPolicy bounds the proxy's retry-on-dead-backend behaviour.
type RetryPolicy struct {
	// MaxRetries caps additional backend attempts after the first; 0
	// disables retries entirely.
	MaxRetries int
	// RetryNonIdempotent permits retrying methods like POST. Off by
	// default: a connection reset does not prove the backend never
	// processed the request.
	RetryNonIdempotent bool
}

// DefaultRetryPolicy returns the proxy's retry defaults.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxRetries: 3} }

// idempotent reports whether the method is safe to replay per RFC 9110.
func idempotent(method string) bool {
	switch method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return false
}

// Proxy is a live HTTP service switch. It implements http.Handler; serve
// it with net/http on the address clients should use.
type Proxy struct {
	config *svcswitch.ConfigFile

	// r is the routing core shared with the simulated switch: route
	// table, policy, passive health, retry walk, and counters.
	r *svcswitch.Router[*httputil.ReverseProxy]

	// proxies caches one reverse proxy per backend address; the router
	// fills it from its table rebuilds, under the router's mutex.
	proxies   map[string]*httputil.ReverseProxy
	transport *http.Transport
	retry     atomic.Pointer[RetryPolicy]

	// retryExhausted counts requests dropped while untried backends
	// remained (the retry cap or idempotency gate stopped the walk). Only
	// the proxy has such gates, so the counter is its own, not the
	// router's.
	retryExhausted *telemetry.Counter

	// reqSeq numbers requests (atomically — ServeHTTP is concurrent);
	// histogram exemplars carry it as the trace ID.
	reqSeq atomic.Uint64

	// rtc is the tail-sampling request collector, stored atomically so
	// SetRequestTracer is safe while requests are in flight. Nil
	// (untraced) until SetRequestTracer; when nil, ServeHTTP takes no
	// extra clock readings for tracing.
	rtc atomic.Pointer[reqtrace.Collector]

	// clock returns the health timestamp of a pick or an attempt's
	// outcome in nanoseconds; nil reads the wall clock. Tests substitute
	// a scripted clock.
	clock func() int64
}

// New creates a proxy for the given service configuration with the
// default weighted-round-robin policy and tuned transport settings.
func New(config *svcswitch.ConfigFile) *Proxy {
	p := &Proxy{
		config:         config,
		proxies:        make(map[string]*httputil.ReverseProxy),
		transport:      newTransport(),
		retryExhausted: &telemetry.Counter{},
	}
	p.r = svcswitch.NewRouter(config, false, p.proxyFor)
	p.SetRetryPolicy(DefaultRetryPolicy())
	return p
}

// proxyFor returns the cached reverse proxy for a backend address,
// building it on first use. The router calls it under its mutex.
func (p *Proxy) proxyFor(addr string) *httputil.ReverseProxy {
	rp := p.proxies[addr]
	if rp == nil {
		rp = httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: addr})
		rp.Transport = p.transport
		rp.ErrorHandler = captureError
		p.proxies[addr] = rp
	}
	return rp
}

// now returns the health clock in nanoseconds: the wall-clock reading
// at, or a fresh one when at is zero.
func (p *Proxy) now(at time.Time) int64 {
	if p.clock != nil {
		return p.clock()
	}
	if at.IsZero() {
		at = time.Now()
	}
	return at.UnixNano()
}

// Instrument connects the proxy's counters and wall-clock latency
// histograms to a registry — the same instrument names as the simulated
// switch, labeled by service, so dashboards read identically over
// simulated and live traffic — plus soda_switch_retry_exhausted_total,
// which only the proxy's retry gates can increment.
func (p *Proxy) Instrument(reg *telemetry.Registry) {
	p.r.Instrument(reg)
	c := reg.Counter("soda_switch_retry_exhausted_total", telemetry.L("service", p.config.ServiceName))
	c.Add(p.retryExhausted.Value())
	p.retryExhausted = c
}

// SetLogger routes the proxy's backend-health transitions and drops into
// the flight recorder. Safe to call while requests are in flight. A nil
// logger restores the no-op default.
func (p *Proxy) SetLogger(l *flight.Logger) { p.r.SetLogger(l) }

// SetRequestTracer attaches a tail-sampling request collector. While
// attached, request IDs come from the collector's store-wide sequence,
// ServeHTTP attributes wall-clock time to route-pick and upstream
// stages, and latency exemplars are stamped only for retained requests
// so every exposed exemplar resolves via /traces/{id}. Safe to call
// while requests are in flight; nil detaches.
func (p *Proxy) SetRequestTracer(c *reqtrace.Collector) { p.rtc.Store(c) }

// RequestTracer returns the attached collector, nil when untraced.
func (p *Proxy) RequestTracer() *reqtrace.Collector { return p.rtc.Load() }

// Routed returns how many requests were forwarded to a backend. It is
// lock-free: the counter is atomic.
func (p *Proxy) Routed() int { return int(p.r.Routed.Value()) }

// Dropped returns how many requests could not be served.
func (p *Proxy) Dropped() int { return int(p.r.Dropped.Value()) }

// Retried returns how many backend attempts were abandoned for another
// backend (connection refused or reset before any response bytes).
func (p *Proxy) Retried() int { return int(p.r.Retried.Value()) }

// RetryExhausted returns how many requests were dropped while untried
// backends remained — the retry cap or the idempotency gate stopped the
// proxy from trying them.
func (p *Proxy) RetryExhausted() int { return int(p.retryExhausted.Value()) }

// EjectedTotal returns how many times a backend was ejected.
func (p *Proxy) EjectedTotal() int { return int(p.r.Ejected.Value()) }

// ReadmittedTotal returns how many times an ejected backend was
// re-admitted after a successful half-open probe.
func (p *Proxy) ReadmittedTotal() int { return int(p.r.Readmitted.Value()) }

// SetRetryPolicy replaces the retry bounds; requests already in flight
// keep the bounds they started with.
func (p *Proxy) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxRetries < 0 {
		panic("realswitch: negative retry cap")
	}
	p.retry.Store(&rp)
}

// RetryPolicy returns the active retry bounds.
func (p *Proxy) RetryPolicy() RetryPolicy { return *p.retry.Load() }

// SetHealth configures passive backend health tracking; a zero
// EjectAfter disables it and returns every backend to the rotation.
func (p *Proxy) SetHealth(hc svcswitch.HealthConfig) { p.r.SetHealth(hc) }

// BackendEjected reports whether passive health currently holds the
// backend out of the rotation.
func (p *Proxy) BackendEjected(e svcswitch.BackendEntry) bool { return p.r.BackendEjected(e.Addr()) }

// LatencyHistogram returns the proxy's wall-clock latency histogram,
// nil when uninstrumented — parity with svcswitch.Switch for the SLO
// evaluator.
func (p *Proxy) LatencyHistogram() *telemetry.Histogram { return p.r.LatencyHistogram() }

// Transport returns the shared transport backing every backend proxy,
// for connection-pool introspection in tests and benchmarks.
func (p *Proxy) Transport() *http.Transport { return p.transport }

// SetPolicy installs a service-specific policy (the ASP hook of §3.4).
func (p *Proxy) SetPolicy(pol svcswitch.Policy) { p.r.SetPolicy(pol) }

// Config returns the proxy's service configuration file.
func (p *Proxy) Config() *svcswitch.ConfigFile { return p.config }

// StatsFor returns forwarding statistics for a backend.
func (p *Proxy) StatsFor(e svcswitch.BackendEntry) svcswitch.Stats { return p.r.StatsFor(e.Addr()) }

// captureWriter wraps the client's ResponseWriter so the proxy can tell
// whether a backend attempt failed before any response bytes were
// committed — the condition for safely retrying another backend.
type captureWriter struct {
	http.ResponseWriter
	wroteHeader bool
	failed      bool
	err         error
}

func (c *captureWriter) WriteHeader(code int) {
	c.wroteHeader = true
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.wroteHeader = true
	return c.ResponseWriter.Write(b)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// captureError is the shared ReverseProxy ErrorHandler: it records the
// failure on the captureWriter without writing a response, leaving the
// retry decision to ServeHTTP. httputil only invokes it for errors that
// occur before the response header is forwarded, so a failed-and-clean
// writer is always safe to retry.
func captureError(w http.ResponseWriter, r *http.Request, err error) {
	if cw, ok := w.(*captureWriter); ok {
		cw.failed = true
		cw.err = err
		return
	}
	http.Error(w, "realswitch: backend error: "+err.Error(), http.StatusBadGateway)
}

// replayable reports whether the request body can be re-sent to another
// backend.
func replayable(r *http.Request) bool {
	return r.Body == nil || r.Body == http.NoBody || r.GetBody != nil
}

// ServeHTTP implements http.Handler: pick a backend through the router
// and reverse-proxy the request over the shared transport, timed on the
// wall clock. Backends that fail before any response bytes are
// committed are retried through the untried backends (counted in
// soda_switch_retries_total) up to the retry policy's cap —
// non-idempotent methods are not retried unless the policy opts in; when
// attempts run out, the request is dropped with 502
// (soda_switch_retry_exhausted_total if backends remained untried).
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rtc := p.rtc.Load()
	reqID := p.reqSeq.Add(1)
	if rtc != nil {
		reqID = rtc.NextID()
	}
	rt := p.r.Route("")
	if rt == nil {
		p.r.Dropped.Inc()
		if rtc != nil {
			rec := reqtrace.Record{ID: reqID, StartNs: start.UnixNano(), Dropped: true,
				TotalNs: time.Since(start).Nanoseconds()}
			rtc.Offer(&rec)
		}
		p.r.Logger().WithTrace(reqID).Error("request dropped: no backends configured")
		http.Error(w, "realswitch: no backends configured", http.StatusBadGateway)
		return
	}
	n := len(rt.Entries)
	retry := p.retry.Load()
	canRetry := replayable(r) && (retry.RetryNonIdempotent || idempotent(r.Method))
	maxAttempts := min(n, retry.MaxRetries+1)
	var tried svcswitch.Tried
	var lastErr error
	// Per-stage wall-clock attribution, measured only when a collector
	// is attached. The first pick's health timestamp is the request's
	// start, so a request served on its first attempt reads no clock
	// beyond start and its latency; retries and failures read their own.
	var routeNs, upstreamNs int64
	lastBackend := ""
	attempts := 0
	pickAt := start
	for ; attempts < maxAttempts; attempts++ {
		var tPick time.Time
		if rtc != nil {
			tPick = time.Now()
		}
		idx := p.r.Pick(rt, &tried, p.now(pickAt))
		pickAt = time.Time{}
		if rtc != nil {
			routeNs += time.Since(tPick).Nanoseconds()
		}
		if idx < 0 {
			break
		}
		if attempts > 0 && r.GetBody != nil {
			body, err := r.GetBody()
			if err != nil {
				break
			}
			r.Body = body
		}
		p.r.Begin(rt, idx)
		cw := captureWriter{ResponseWriter: w}
		var tUp time.Time
		if rtc != nil {
			lastBackend = rt.Addrs[idx]
			tUp = time.Now()
		}
		rt.Targets[idx].ServeHTTP(&cw, r)
		if rtc != nil {
			upstreamNs += time.Since(tUp).Nanoseconds()
		}
		if !cw.failed {
			p.r.Done(rt, idx)
			p.r.Forwarded(rt, idx)
			elapsed := time.Since(start)
			exID := reqID
			if rtc != nil {
				rec := reqtrace.Record{
					ID: reqID, StartNs: start.UnixNano(), Backend: rt.Addrs[idx],
					Retries: attempts, RouteNs: routeNs,
					UpstreamNs: upstreamNs, TotalNs: elapsed.Nanoseconds(),
				}
				if !rtc.Offer(&rec) {
					exID = 0 // unretained: leave no dangling exemplar
				}
			}
			sec := elapsed.Seconds()
			rt.Latency.ObserveTraced(sec, exID)
			rt.Hists[idx].ObserveTraced(sec, exID)
			return
		}
		lastErr = cw.err
		p.r.Fail(rt, idx, p.now(time.Time{}))
		if cw.wroteHeader {
			// Bytes already reached the client; nothing to retry.
			p.r.Dropped.Inc()
			if rtc != nil {
				rec := reqtrace.Record{
					ID: reqID, StartNs: start.UnixNano(), Backend: rt.Addrs[idx],
					Retries: attempts, Dropped: true, RouteNs: routeNs,
					UpstreamNs: upstreamNs, TotalNs: time.Since(start).Nanoseconds(),
				}
				rtc.Offer(&rec)
			}
			return
		}
		if !canRetry {
			attempts++
			break
		}
	}
	p.r.Dropped.Inc()
	if rtc != nil {
		rec := reqtrace.Record{
			ID: reqID, StartNs: start.UnixNano(), Backend: lastBackend,
			Retries: attempts, Dropped: true, RouteNs: routeNs,
			UpstreamNs: upstreamNs, TotalNs: time.Since(start).Nanoseconds(),
		}
		rtc.Offer(&rec)
	}
	if lastErr != nil && tried.Len() < n {
		p.retryExhausted.Inc()
	}
	msg := "realswitch: no live backend"
	if lastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, lastErr)
	}
	p.r.Logger().WithTrace(reqID).Error("request dropped",
		telemetry.L("attempts", fmt.Sprint(attempts)),
		telemetry.L("error", msg))
	http.Error(w, msg, http.StatusBadGateway)
}

// Backend is a minimal live application service for demonstrations: it
// serves a fixed payload and identifies itself, so tests can verify the
// 2:1 weighted split over real TCP.
type Backend struct {
	// Name identifies the backend in the X-Soda-Node response header.
	Name string
	// Payload is the response body.
	Payload []byte

	mu     sync.Mutex
	served int
}

// Served returns how many requests this backend handled.
func (b *Backend) Served() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.served
}

// ServeHTTP implements http.Handler.
func (b *Backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	b.served++
	b.mu.Unlock()
	w.Header().Set("X-Soda-Node", b.Name)
	w.WriteHeader(http.StatusOK)
	if len(b.Payload) > 0 {
		w.Write(b.Payload)
	} else {
		io.WriteString(w, "ok from "+b.Name)
	}
}
