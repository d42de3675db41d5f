package realswitch

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
)

// hangupBackend starts a live backend that asks fail before answering
// each request. A true answer closes the connection before any response
// header — the failure the proxy may retry on another backend.
func hangupBackend(t testing.TB, capacity int, fail func() bool) svcswitch.BackendEntry {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	host, port, _ := strings.Cut(strings.TrimPrefix(srv.URL, "http://"), ":")
	n, err := strconv.Atoi(port)
	if err != nil {
		t.Fatal(err)
	}
	return svcswitch.BackendEntry{IP: simnet.IP(host), Port: n, Capacity: capacity}
}

// serveOnce routes one GET through the proxy and returns its status.
func serveOnce(p *Proxy) int {
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	return rec.Code
}

// A custom policy picks among every ejected backend due its probe, but
// only the chosen backend's probe slot may be claimed: the others stay
// admissible for probes of their own.
func TestCustomPolicyProbesEachEjectedBackend(t *testing.T) {
	var down [3]atomic.Bool
	var served [3]atomic.Int64
	var ents []svcswitch.BackendEntry
	for i := range down {
		ents = append(ents, hangupBackend(t, 1, func() bool {
			if down[i].Load() {
				return true
			}
			served[i].Add(1)
			return false
		}))
	}
	cfg := svcswitch.NewConfigFile("probes")
	if err := cfg.SetEntries(ents); err != nil {
		t.Fatal(err)
	}
	p := New(cfg)
	p.Transport().DisableKeepAlives = true
	p.SetPolicy(svcswitch.NewLeastActive())
	p.SetHealth(svcswitch.HealthConfig{EjectAfter: 1, ProbeAfter: 20 * time.Millisecond})

	// Backends 0 and 1 fail: the first request ejects both and lands on 2.
	down[0].Store(true)
	down[1].Store(true)
	if code := serveOnce(p); code != http.StatusOK || !p.BackendEjected(ents[0]) || !p.BackendEjected(ents[1]) {
		t.Fatalf("status %d, ejected %v/%v; want 200 with backends 0 and 1 ejected",
			code, p.BackendEjected(ents[0]), p.BackendEjected(ents[1]))
	}
	// Both recover and come due; least-active's tie-break probes 0.
	down[0].Store(false)
	down[1].Store(false)
	time.Sleep(60 * time.Millisecond)
	if code := serveOnce(p); code != http.StatusOK || served[0].Load() != 1 || p.ReadmittedTotal() != 1 {
		t.Fatalf("status %d, backend 0 served %d, readmissions %d; want its probe to succeed",
			code, served[0].Load(), p.ReadmittedTotal())
	}
	// Backend 0 fails again; the retry must still find backend 1's probe
	// slot free.
	down[0].Store(true)
	if code := serveOnce(p); code != http.StatusOK || served[1].Load() != 1 {
		t.Fatalf("status %d, backend 1 served %d; its probe slot was never released", code, served[1].Load())
	}
	if p.BackendEjected(ents[1]) || p.ReadmittedTotal() != 2 {
		t.Fatalf("backend 1 ejected=%v, readmissions %d; want it readmitted", p.BackendEjected(ents[1]), p.ReadmittedTotal())
	}
}

// TestPickAndAccountZeroAlloc pins the proxy's per-attempt routing work
// — table load, pick, stat and counter updates, and a retry after a
// failed attempt — at 0 allocations, for the built-in rotation and for
// a custom policy with health tracking on.
func TestPickAndAccountZeroAlloc(t *testing.T) {
	p := pickFixture()
	retry := func() {
		rt := p.r.Route("")
		var tried svcswitch.Tried
		idx := p.r.Pick(rt, &tried, 0)
		p.r.Begin(rt, idx)
		p.r.Fail(rt, idx, 0)
		idx = p.r.Pick(rt, &tried, 0)
		p.r.Begin(rt, idx)
		p.r.Done(rt, idx)
		p.r.Forwarded(rt, idx)
	}
	for _, custom := range []bool{false, true} {
		if custom {
			p.SetPolicy(svcswitch.NewLeastActive())
			p.SetHealth(svcswitch.HealthConfig{EjectAfter: 1 << 30, ProbeAfter: time.Second})
		}
		if a := testing.AllocsPerRun(500, func() { pickAndAccount(p, 0) }); a != 0 {
			t.Errorf("custom=%v: pick-and-account allocates %.1f/op, want 0", custom, a)
		}
		if a := testing.AllocsPerRun(500, retry); a != 0 {
			t.Errorf("custom=%v: retried pick allocates %.1f/op, want 0", custom, a)
		}
	}
}

// hop is one simulated LAN hop in the differential test. The simulated
// plane pays it on every zero-byte transfer; the live plane's scripted
// health clock advances by it at the same points.
const hop = sim.Millisecond

// planeScript is one differential scenario: backend capacities, health
// and policy settings, each request's start time, and the per-attempt
// outcomes both planes consume in attempt order.
type planeScript struct {
	caps     []int
	health   svcswitch.HealthConfig
	policy   int // 0 weighted round-robin, 1 round-robin, 2 least-active
	starts   []int64
	outcomes []bool // true: the attempt fails
}

func newPlaneScript(seed uint64) planeScript {
	rng := sim.NewRNG(seed)
	n := 1 + rng.Intn(4)
	s := planeScript{policy: rng.Intn(3)}
	for i := 0; i < n; i++ {
		s.caps = append(s.caps, 1+rng.Intn(3))
	}
	if rng.Bool(0.75) {
		s.health = svcswitch.HealthConfig{EjectAfter: 1 + rng.Intn(3), ProbeAfter: 2*hop + sim.Duration(rng.Intn(int(8*hop)))}
	}
	var at int64 // virtual time starts at 0, and so does the script
	for i := 8 + rng.Intn(17); i > 0; i-- {
		s.starts = append(s.starts, at)
		at += int64(sim.Duration(n+2)*hop) + int64(rng.Intn(int(12*hop)))
	}
	failP := rng.Float64()
	for i := len(s.starts) * n; i > 0; i-- {
		s.outcomes = append(s.outcomes, rng.Bool(failP))
	}
	return s
}

func (s planeScript) setPolicy(set func(svcswitch.Policy)) {
	switch s.policy {
	case 1:
		set(svcswitch.NewRoundRobin())
	case 2:
		set(svcswitch.NewLeastActive())
	}
}

// planeStep is what one request did and left behind: its attempts, its
// fate, and the health state and clock when it finished.
type planeStep struct {
	Picks                   []int
	Served                  bool
	Retries                 int
	Ejected                 []bool
	Ejections, Readmissions int
	At                      int64
}

// simNode runs the simulated switch with free, instant CPU.
type simNode struct {
	ip simnet.IP
	k  *sim.Kernel
}

func (n simNode) IP() simnet.IP                            { return n.ip }
func (n simNode) SyscallCost(cycles.Syscall) cycles.Cycles { return 0 }
func (n simNode) Alive() bool                              { return true }
func (n simNode) ExecCPU(_ cycles.Cycles, onDone func()) bool {
	n.k.Immediately(onDone)
	return true
}

// runSimPlane plays the script through a simulated Switch whose
// handlers refuse the attempts the script fails.
func runSimPlane(t *testing.T, s planeScript) []planeStep {
	k := sim.NewKernel()
	net := simnet.New(k, hop)
	host, client := net.MustAttach("host", 1000), net.MustAttach("client", 1000)
	ents := make([]svcswitch.BackendEntry, len(s.caps))
	for i, c := range s.caps {
		ents[i] = svcswitch.BackendEntry{IP: simnet.IP(fmt.Sprintf("10.0.0.%d", i+1)), Port: 8080, Capacity: c}
		if err := host.AddIP(ents[i].IP); err != nil {
			t.Fatal(err)
		}
	}
	if err := host.AddIP("10.0.0.100"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddIP("10.0.1.1"); err != nil {
		t.Fatal(err)
	}
	cfg := svcswitch.NewConfigFile("planes")
	if err := cfg.SetEntries(ents); err != nil {
		t.Fatal(err)
	}
	sw := svcswitch.New(net, simNode{ip: "10.0.0.100", k: k}, cfg)
	s.setPolicy(sw.SetPolicy)
	sw.SetHealth(s.health)

	var steps []planeStep
	var cur planeStep
	next := 0
	for i, e := range ents {
		sw.Bind(e, func(_ simnet.IP, onDone func()) bool {
			cur.Picks = append(cur.Picks, i)
			next++
			if s.outcomes[next-1] {
				return false
			}
			k.Immediately(onDone)
			return true
		})
	}
	sw.OnTrace(func(tr svcswitch.Trace) {
		cur.Served, cur.Retries, cur.At = !tr.Dropped, tr.Retries, int64(k.Now())
		for _, e := range ents {
			cur.Ejected = append(cur.Ejected, sw.BackendEjected(e.Addr()))
		}
		cur.Ejections, cur.Readmissions = sw.EjectedTotal(), sw.ReadmittedTotal()
		steps = append(steps, cur)
		cur = planeStep{}
	})
	for _, at := range s.starts {
		k.At(sim.Time(at), func() {
			if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1"}); err != nil {
				t.Error(err)
			}
		})
	}
	k.Run()
	return steps
}

// runLivePlane plays the script through a Proxy over loopback backends
// that hang up on the attempts the script fails. The health clock is
// scripted to read what the simulated plane's virtual clock reads at the
// same points: a request's start plus one hop at its first pick, and one
// more hop per backend attempt.
func runLivePlane(t *testing.T, s planeScript) []planeStep {
	var clk atomic.Int64
	var mu sync.Mutex // guards cur and next against the backends' goroutines
	var cur planeStep
	next := 0
	ents := make([]svcswitch.BackendEntry, len(s.caps))
	for i, c := range s.caps {
		ents[i] = hangupBackend(t, c, func() bool {
			clk.Add(int64(hop))
			mu.Lock()
			defer mu.Unlock()
			cur.Picks = append(cur.Picks, i)
			next++
			return s.outcomes[next-1]
		})
	}
	cfg := svcswitch.NewConfigFile("planes")
	if err := cfg.SetEntries(ents); err != nil {
		t.Fatal(err)
	}
	p := New(cfg)
	// One connection per attempt: a reused connection's hang-up would
	// make the transport replay the attempt on its own.
	p.Transport().DisableKeepAlives = true
	p.clock = clk.Load
	p.SetRetryPolicy(RetryPolicy{MaxRetries: len(ents)})
	s.setPolicy(p.SetPolicy)
	p.SetHealth(s.health)

	var steps []planeStep
	for _, at := range s.starts {
		clk.Store(at + int64(hop))
		retried := p.Retried()
		code := serveOnce(p)
		mu.Lock()
		cur.Served, cur.Retries, cur.At = code == http.StatusOK, p.Retried()-retried, clk.Load()
		for _, e := range ents {
			cur.Ejected = append(cur.Ejected, p.BackendEjected(e))
		}
		cur.Ejections, cur.Readmissions = p.EjectedTotal(), p.ReadmittedTotal()
		steps = append(steps, cur)
		cur = planeStep{}
		mu.Unlock()
	}
	t.Cleanup(p.Transport().CloseIdleConnections)
	return steps
}

// FuzzRoutingPlanesAgree feeds one seeded script of request times and
// per-attempt outcomes to the simulated switch and to the live proxy,
// and requires identical pick sequences, retry counts, and ejection and
// re-admission timelines. Both planes route through the same core, so
// any difference is a wiring difference: when each plane picks, when it
// reports an outcome, and which clock reading it passes.
func FuzzRoutingPlanesAgree(f *testing.F) {
	// Seed 68 has a pick land between a fail-time-shifted and a true
	// probe deadline: it catches a plane reporting an outcome at the
	// wrong clock reading.
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 68} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := newPlaneScript(seed)
		simSteps, liveSteps := runSimPlane(t, s), runLivePlane(t, s)
		if len(simSteps) != len(s.starts) || len(liveSteps) != len(s.starts) {
			t.Fatalf("script of %d requests: sim finished %d, live %d", len(s.starts), len(simSteps), len(liveSteps))
		}
		for i := range simSteps {
			if !reflect.DeepEqual(simSteps[i], liveSteps[i]) {
				t.Fatalf("seed %d (caps %v, health %+v, policy %d), request %d at %d ns:\n sim  %+v\n live %+v",
					seed, s.caps, s.health, s.policy, i, s.starts[i], simSteps[i], liveSteps[i])
			}
		}
	})
}
