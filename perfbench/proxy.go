package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/realswitch"
	"repro/internal/sim"
	"repro/internal/svcswitch"
)

// The live workload: a realswitch.Proxy in front of four loopback
// realswitch.Backends with capacities 2:1:2:1, driven by one open-loop
// generator over at most nproc keep-alive connections. All traffic
// crosses the loopback interface, not a real link.

const (
	// proxyLowRate and proxyHighRate are the fixed offered rates (req/s).
	proxyLowRate  = 1000.0
	proxyHighRate = 4000.0
	// proxyLowN and proxyHighN are the requests sent at those rates in
	// each round of the run: by the percentile rule, proxyHighN gives a
	// round's p99 thirty-two samples beyond it.
	proxyLowN  = 600
	proxyHighN = 3200
	// proxyWindowN is the window the high-rate samples are cut into for
	// step_tail_ms, 25 ms at the high rate: its rule percentile is p90,
	// and the median over every window of the run is reported. The p95
	// and p99 of this loopback stack are set by stalls of the host: a
	// competing busy process doubled the median of 800-request windows'
	// p95 and moved this figure by 6%. The median of the rounds' p99s is
	// printed as proxy_p99_ms.high.
	proxyWindowN = 100
	// proxyP99Limit is the latency limit a sustained rate must meet, and
	// proxySearchMax the top of the search range.
	proxyP99Limit  = 5 * time.Millisecond
	proxySearchMax = 20000.0
	// proxyProbe is the length of one rate probe in the max-rate search,
	// and proxyProbeMinN the least requests in one: enough to leave ten
	// samples above the p99.
	proxyProbe     = 150 * time.Millisecond
	proxyProbeMinN = 1000
	// proxyGCPercent is the collector target while the workload runs: the
	// generator shares the proxy's heap, and at the default its garbage
	// would trigger a collection every few milliseconds.
	proxyGCPercent = 400
	// proxySendDeadline is how late a fixed-rate send may start before it
	// counts as failed: beyond it the generator, not the proxy, set the
	// latency.
	proxySendDeadline = 50 * time.Millisecond
	// proxyWarmN is the closed-loop request count that warms a fresh
	// stack; it is part of the setup.
	proxyWarmN = 2000
	// proxyBurstN is the closed-loop request count every round starts
	// with; the traced run compares its rate traced and untraced.
	proxyBurstN = 2000
	// proxySetups is how many times the stack is built to time setup.
	proxySetups = 9
	// proxyMinRounds is the least rounds of an untraced run.
	proxyMinRounds = 3
)

// proxyCaps are the backend capacities: the Figure 4 2:1 split, twice.
var proxyCaps = []int{2, 1, 2, 1}

// proxyConns is the generator's connection count: nproc, at most 2.
func proxyConns() int { return min(runtime.NumCPU(), 2) }

// timedHandler times a handler's ServeHTTP on the wall clock.
type timedHandler struct {
	inner     http.Handler
	ns, calls atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.inner.ServeHTTP(w, r)
	t.ns.Add(time.Since(start).Nanoseconds())
	t.calls.Add(1)
}

// proxyStack is the live system under test plus the generator's clients.
type proxyStack struct {
	proxy    *realswitch.Proxy
	servers  []*http.Server
	url      string
	clients  []*http.Client
	front    *timedHandler   // traced only
	backends []*timedHandler // traced only
	serving  sync.WaitGroup  // one per server, done when Serve returns
}

// serve starts h on a fresh loopback listener.
func (s *proxyStack) serve(h http.Handler) (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		srv.Serve(ln) // returns ErrServerClosed once closed
	}()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// buildProxyStack starts the backends and the proxy, opens the
// generator's connections and warms the stack with a closed-loop burst.
// traced wraps the proxy's and the backends' ServeHTTP in wall-clock
// timers.
func buildProxyStack(traced bool) (*proxyStack, error) {
	s := &proxyStack{}
	var entries []svcswitch.BackendEntry
	for i, c := range proxyCaps {
		be := &realswitch.Backend{Name: "node-" + strconv.Itoa(i)}
		var h http.Handler = be
		if traced {
			th := &timedHandler{inner: be}
			s.backends = append(s.backends, th)
			h = th
		}
		port, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		entries = append(entries, svcswitch.BackendEntry{IP: "127.0.0.1", Port: port, Capacity: c})
	}
	conf := svcswitch.NewConfigFile("bench")
	if err := conf.SetEntries(entries); err != nil {
		s.close()
		return nil, err
	}
	s.proxy = realswitch.New(conf)
	var front http.Handler = s.proxy
	if traced {
		s.front = &timedHandler{inner: s.proxy}
		front = s.front
	}
	port, err := s.serve(front)
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = fmt.Sprintf("http://127.0.0.1:%d", port)
	for i := 0; i < proxyConns(); i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// Open every connection before timing starts.
	for _, c := range s.clients {
		if r := send(c, s.url+"/warm"); !r.ok {
			s.close()
			return nil, fmt.Errorf("warm-up request failed: %v", r.err)
		}
	}
	if warm, _ := s.closedLoop(proxyWarmN); warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%d of %d warm-up requests failed", warm.failed, warm.sent)
	}
	return s, nil
}

// proxyCounters are the cumulative counts of a stack's layers.
type proxyCounters struct {
	frontNs, frontCalls      int64
	backendNs, backendCalls  int64
	routed, retried, dropped int64
}

// counters reads the layers' counts; the timers are those of a traced
// stack.
func (s *proxyStack) counters() proxyCounters {
	c := proxyCounters{
		routed:  int64(s.proxy.Routed()),
		retried: int64(s.proxy.Retried()),
		dropped: int64(s.proxy.Dropped()),
	}
	if s.front != nil {
		c.frontNs, c.frontCalls = s.front.ns.Load(), s.front.calls.Load()
	}
	for _, b := range s.backends {
		c.backendNs += b.ns.Load()
		c.backendCalls += b.calls.Load()
	}
	return c
}

// minus returns the counts accrued since o.
func (c proxyCounters) minus(o proxyCounters) proxyCounters {
	return proxyCounters{
		frontNs: c.frontNs - o.frontNs, frontCalls: c.frontCalls - o.frontCalls,
		backendNs: c.backendNs - o.backendNs, backendCalls: c.backendCalls - o.backendCalls,
		routed: c.routed - o.routed, retried: c.retried - o.retried, dropped: c.dropped - o.dropped,
	}
}

// close stops every server and waits for them, and drops every idle
// connection.
func (s *proxyStack) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	if s.proxy != nil {
		s.proxy.Transport().CloseIdleConnections()
	}
}

// outcome is one request's result.
type outcome struct {
	ok   bool
	node string
	err  error
}

// send performs one GET and checks the response: a 200 that names the
// backend that served it.
func send(c *http.Client, url string) outcome {
	resp, err := c.Get(url)
	if err != nil {
		return outcome{err: err}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	node := resp.Header.Get("X-Soda-Node")
	switch {
	case err != nil:
		return outcome{err: err}
	case resp.StatusCode != http.StatusOK:
		return outcome{err: fmt.Errorf("status %d", resp.StatusCode)}
	case node == "":
		return outcome{err: errors.New("response without X-Soda-Node")}
	}
	return outcome{ok: true, node: node}
}

// phase is the result of one batch of requests.
type phase struct {
	lat    []float64 // ms from due time to response, successful requests
	lateMs []float64 // ms each send started after its due time
	sent   int
	failed int // errors and bad responses
	late   int // sends that started past proxySendDeadline
	nodes  map[string]int
}

// job is one scheduled request.
type job struct {
	due  time.Time
	path string
}

// openLoop sends n requests due at a fixed rate, one connection per
// worker. A request waits for a free connection when all are busy; its
// latency is measured from when it was due, so that wait counts.
func (s *proxyStack) openLoop(rate float64, n int, rng *sim.RNG) phase {
	p := phase{nodes: map[string]int{}}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range jobs {
				start := time.Now()
				r := send(c, s.url+j.path)
				done := time.Now()
				mu.Lock()
				p.sent++
				late := start.Sub(j.due)
				p.lateMs = append(p.lateMs, float64(late.Nanoseconds())/1e6)
				if late > proxySendDeadline {
					p.late++
				}
				if r.ok {
					p.nodes[r.node]++
					p.lat = append(p.lat, float64(done.Sub(j.due).Nanoseconds())/1e6)
				} else {
					p.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	gap := float64(time.Second) / rate
	t0 := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * gap))
		waitUntil(due)
		jobs <- job{due: due, path: "/item/" + strconv.Itoa(rng.Intn(1<<20))}
	}
	close(jobs)
	wg.Wait()
	return p
}

// waitUntil returns at t. It sleeps in nanosleep rather than
// time.Sleep: a runtime timer shorter than a millisecond can overshoot by
// up to a millisecond, which would dominate latency measured from the due
// time.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// closedLoop sends n requests back to back over every connection and
// returns the achieved rate.
func (s *proxyStack) closedLoop(n int) (phase, float64) {
	p := phase{nodes: map[string]int{}}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				r := send(c, s.url+"/burst")
				mu.Lock()
				p.sent++
				if r.ok {
					p.nodes[r.node]++
				} else {
					p.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return p, float64(n) / time.Since(t0).Seconds()
}

// sustains reports whether a probe met the p99 limit with every request
// answered and the last send on time (no growing backlog).
func sustains(p phase) bool {
	if p.failed > 0 || len(p.lat) == 0 {
		return false
	}
	lastLate := p.lateMs[len(p.lateMs)-1]
	lat := append([]float64(nil), p.lat...)
	limit := float64(proxyP99Limit.Nanoseconds()) / 1e6
	return quantile(lat, 0.99) <= limit && lastLate <= limit
}

// searchMaxRate bisects, in log space, between a sustained rate lo and an
// unsustained rate hi until they are 2% apart, and returns the highest
// sustained rate found.
func (s *proxyStack) searchMaxRate(lo, hi float64, rng *sim.RNG, tally func(phase)) float64 {
	probe := func(rate float64) bool {
		p := s.openLoop(rate, max(proxyProbeMinN, int(rate*proxyProbe.Seconds())), rng)
		tally(p)
		time.Sleep(20 * time.Millisecond) // let queues drain between probes
		return sustains(p)
	}
	for hi/lo > 1.02 {
		mid := math.Sqrt(lo * hi)
		// A stall can fail one probe of a sustainable rate: confirm.
		if probe(mid) || probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// proxyRound is one round of the live workload.
type proxyRound struct {
	burstRate float64 // req/s of the closed-loop burst
	low, high phase   // the fixed low and high rates
	maxRate   float64 // highest sustained rate the search found
}

// round runs one round: a closed-loop burst, the low and the high fixed
// rates, and a max-rate search over the whole range, so that a round the
// host slowed does not narrow the search of the next.
func (s *proxyStack) round(rng *sim.RNG, tally func(phase)) proxyRound {
	var r proxyRound
	var burst phase
	burst, r.burstRate = s.closedLoop(proxyBurstN)
	r.low = s.openLoop(proxyLowRate, proxyLowN, rng)
	r.high = s.openLoop(proxyHighRate, proxyHighN, rng)
	for _, p := range []phase{burst, r.low, r.high} {
		tally(p)
	}
	r.maxRate = s.searchMaxRate(proxyLowRate, proxySearchMax, rng, tally)
	return r
}

// runProxyLive runs the live workload: rounds on one stack until the
// budget is spent. The untraced run builds the stack several
// times to time its setup, and reports setup time, latency at the low
// and high fixed rates, and the highest sustained rate. The traced run
// spends the first half of its budget on rounds on an untraced stack, the
// reference for its overhead, and the second half on the same rounds on
// a stack behind timers, under the tracer, and reports the per-layer
// metrics.
func runProxyLive(cfg runConfig) (*report, error) {
	deadline := time.Now().Add(cfg.budget)
	defer debug.SetGCPercent(debug.SetGCPercent(proxyGCPercent))
	out := newReport()
	rng := sim.NewRNG(cfg.seed ^ 0x9e37)
	nodes := map[string]int{}
	tally := func(p phase) {
		out.attempted += int64(p.sent)
		out.failed += int64(p.failed)
		for n, c := range p.nodes {
			nodes[n] += c
		}
	}
	runRounds := func(s *proxyStack, until time.Time, least int) []proxyRound {
		var rounds []proxyRound
		for len(rounds) < least || time.Now().Before(until) {
			r := s.round(rng, tally)
			// A late fixed-rate send is a failed operation, not a wrong answer.
			out.failed += int64(r.low.late + r.high.late)
			rounds = append(rounds, r)
		}
		return rounds
	}
	var plainRounds []proxyRound
	var tr *tracer
	setupsN := proxySetups
	if cfg.trace {
		plain, err := buildProxyStack(false)
		if err != nil {
			return nil, err
		}
		plainRounds = runRounds(plain, time.Now().Add(cfg.budget/2), 1)
		plain.close()
		tr, setupsN = newTracer(), 1
	}
	var setups []float64
	var s *proxyStack
	for i := 0; i < setupsN; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = buildProxyStack(cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	c0, attempted0 := s.counters(), out.attempted
	if err := tr.begin(); err != nil {
		return nil, err
	}
	rounds := runRounds(s, deadline, proxyMinRounds)
	if err := tr.end(); err != nil {
		return nil, err
	}
	c1 := s.counters()
	checkSplit(out, nodes)

	var lowLat, lateMs, rates, bursts []float64
	var highRounds [][]float64
	late := 0
	for _, r := range rounds {
		lowLat = append(lowLat, r.low.lat...)
		highRounds = append(highRounds, r.high.lat)
		lateMs = append(append(lateMs, r.low.lateMs...), r.high.lateMs...)
		rates = append(rates, r.maxRate)
		bursts = append(bursts, r.burstRate)
		late += r.low.late + r.high.late
	}
	lowT, lowP99 := summarize(lowLat), quantile(lowLat, 0.99)
	highWindows := windows(highRounds, proxyWindowN)
	highW, highR := combine(highWindows), combine(highRounds)
	fmt.Fprintf(cfg.log, "  %d connections over loopback; %d rounds; closed-loop bursts %.0f req/s; max sustained rates %.0f req/s\n",
		len(s.clients), len(rounds), bursts, rates)
	fmt.Fprintf(cfg.log, "  %d fixed-rate sends started over %v late; send lateness p50 %.3g ms\n",
		late, proxySendDeadline, quantile(lateMs, 0.5))

	if !cfg.trace {
		out.values["setup_s"] = median(setups)
		out.values["work_per_s"] = median(rates)
		out.values["step_p50_ms"] = lowT.P50
		out.values["step_tail_ms"] = highW.Tail
		out.name("proxy_max_rps", median(rates), "1/s", "median of %d rounds; p99 limit %v, no backlog", len(rounds), proxyP99Limit)
		out.name("proxy_p50_ms.low", lowT.P50, "ms", "%.0f req/s, all %d samples of the run", proxyLowRate, lowT.N)
		out.name("proxy_p99_ms.low", lowP99, "ms", "%.0f req/s, all %d samples of the run", proxyLowRate, lowT.N)
		out.name("proxy_p99_ms.high", highR.Tail, "ms", "%.0f req/s, median of %d rounds' p%g over %d samples each",
			proxyHighRate, len(rounds), highR.Level*100, proxyHighN)
		out.name("step_tail_ms", highW.Tail, "ms", "%.0f req/s, median of %d windows' p%g over %d samples each",
			proxyHighRate, len(highWindows), highW.Level*100, proxyWindowN)
		return out, nil
	}

	v := out.values
	out.setTrace(tr, out.attempted-attempted0)
	var plainBursts []float64
	for _, r := range plainRounds {
		plainBursts = append(plainBursts, r.burstRate)
	}
	v["trace.overhead"] = median(plainBursts) / median(bursts)
	d := c1.minus(c0)
	v["realswitch.serve_us"] = float64(d.frontNs) / float64(max(d.frontCalls, 1)) / 1e3
	v["backend.serve_us"] = float64(d.backendNs) / float64(max(d.backendCalls, 1)) / 1e3
	v["realswitch.self_us_mean"] = v["realswitch.serve_us"] - v["backend.serve_us"]
	v["realswitch.routed"] = float64(d.routed)
	v["realswitch.retried"] = float64(d.retried)
	v["realswitch.dropped"] = float64(d.dropped)
	// The whole process's allocations (generator, proxy and backends) per
	// request: the layers share one heap.
	v["realswitch.allocs_per_req"] = v["runtime.allocs_per_op"]
	v["gen.late_ms"] = mean(lateMs)
	v["gen.conns"] = float64(len(s.clients))
	return out, nil
}

// checkSplit verifies every request was answered by a backend and the
// weighted round-robin split follows the backend capacities.
func checkSplit(out *report, nodes map[string]int) {
	total, capSum := 0, 0
	for _, c := range nodes {
		total += c
	}
	for _, c := range proxyCaps {
		capSum += c
	}
	worst := 0.0
	for i, c := range proxyCaps {
		want := float64(c) / float64(capSum)
		got := float64(nodes["node-"+strconv.Itoa(i)]) / float64(max(total, 1))
		worst = max(worst, math.Abs(got-want)/want)
	}
	out.check("all responses 200 from a node", total > 0 && int64(total) == out.attempted,
		"%d answered of %d sent", total, out.attempted)
	out.check("split follows capacities", worst <= 0.02,
		"worst backend share off by %.2f%% of its 2:1:2:1 target", worst*100)
}
