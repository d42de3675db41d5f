package realswitch

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/svcswitch"
)

// benchFixture starts nBackends live HTTP servers plus the proxy in
// front of them, outside the testing.T fixture.
func benchFixture(b *testing.B, nBackends int) (*Proxy, *httptest.Server) {
	b.Helper()
	var entries []svcswitch.BackendEntry
	for i := 0; i < nBackends; i++ {
		be := &Backend{Name: "node-" + strconv.Itoa(i)}
		srv := httptest.NewServer(be)
		b.Cleanup(srv.Close)
		host := strings.TrimPrefix(srv.URL, "http://")
		ipPort := strings.Split(host, ":")
		port, err := strconv.Atoi(ipPort[1])
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, svcswitch.BackendEntry{
			IP:       simnet.IP(ipPort[0]),
			Port:     port,
			Capacity: 1 + i%2, // mixed capacities exercise the WRR schedule
		})
	}
	cfg := svcswitch.NewConfigFile("bench")
	if err := cfg.SetEntries(entries); err != nil {
		b.Fatal(err)
	}
	p := New(cfg)
	front := httptest.NewServer(p)
	b.Cleanup(front.Close)
	return p, front
}

// BenchmarkProxyParallel measures contended proxy throughput: 16
// goroutines issue keep-alive requests through the switch to 4 local
// backends. This is the acceptance benchmark for the lock-free data
// plane (the PR 2 tentpole): the pre-PR mutex plane serialized every
// pick/stat/histogram update behind one sync.Mutex and rode
// http.DefaultTransport's 2 idle conns per host.
func BenchmarkProxyParallel(b *testing.B) {
	p, front := benchFixture(b, 4)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		for pb.Next() {
			resp, err := client.Get(front.URL)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.StopTimer()
	if p.Routed() < b.N {
		b.Fatalf("routed %d < N %d", p.Routed(), b.N)
	}
}

// pickFixture builds a proxy over four unreachable backends with mixed
// capacities: enough to route through the pick path, which never dials.
func pickFixture() *Proxy {
	cfg := svcswitch.NewConfigFile("bench")
	var entries []svcswitch.BackendEntry
	for i := 0; i < 4; i++ {
		entries = append(entries, svcswitch.BackendEntry{
			IP: simnet.IP("10.0.0." + strconv.Itoa(i)), Port: 8080, Capacity: 1 + i%2,
		})
	}
	if err := cfg.SetEntries(entries); err != nil {
		panic(err)
	}
	return New(cfg)
}

// pickAndAccount is the proxy's per-attempt routing work without the
// network: route-table load, pick, and the stat and counter updates of a
// served request.
func pickAndAccount(p *Proxy, now int64) bool {
	rt := p.r.Route("")
	var tried svcswitch.Tried
	idx := p.r.Pick(rt, &tried, now)
	if idx < 0 {
		return false
	}
	p.r.Begin(rt, idx)
	p.r.Done(rt, idx)
	p.r.Forwarded(rt, idx)
	return true
}

// BenchmarkPickParallel isolates the routing data plane — route-table
// load, policy pick, and stat updates, no network — under 16 goroutines.
// This is where the RCU/atomic design shows directly, independent of
// the HTTP round-trip cost that dominates the end-to-end benchmarks.
func BenchmarkPickParallel(b *testing.B) {
	p := pickFixture()
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !pickAndAccount(p, 0) {
				b.Error("no pick")
				return
			}
		}
	})
}

// BenchmarkProxySerial is the uncontended single-client floor, for
// comparison with the parallel number.
func BenchmarkProxySerial(b *testing.B) {
	p, front := benchFixture(b, 4)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(front.URL)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.StopTimer()
	if p.Routed() < b.N {
		b.Fatalf("routed %d < N %d", p.Routed(), b.N)
	}
}
