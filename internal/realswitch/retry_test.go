package realswitch

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// Retry-cap, non-idempotent, and passive-health tests over real TCP.

func post(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body)
	return resp
}

func TestRetryDisabledCountsExhaustion(t *testing.T) {
	p, front, _, servers := liveFixture(t)
	p.SetRetryPolicy(RetryPolicy{MaxRetries: 0})
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	for _, s := range servers {
		s.Close()
	}
	resp := get(t, front.URL)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if p.Retried() != 0 {
		t.Fatalf("retries = %d with MaxRetries=0", p.Retried())
	}
	// One of two backends was attempted: the drop left an untried
	// backend on the table.
	if p.RetryExhausted() != 1 {
		t.Fatalf("retry-exhausted = %d, want 1", p.RetryExhausted())
	}
	l := telemetry.L("service", p.config.ServiceName)
	if got := reg.Snapshot().Counter("soda_switch_retry_exhausted_total", l); got != 1 {
		t.Fatalf("retry-exhausted series = %d, want 1", got)
	}
}

func TestRetryFailsOverToLiveBackend(t *testing.T) {
	p, front, backends, servers := liveFixture(t)
	servers[0].Close() // seattle-node (capacity 2) goes dark
	for i := 0; i < 9; i++ {
		resp := get(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	}
	if backends[1].Served() != 9 {
		t.Fatalf("live backend served %d of 9", backends[1].Served())
	}
	if p.Retried() == 0 {
		t.Fatal("failover happened without recording retries")
	}
	// Every attempt found the other backend: nothing was exhausted.
	if p.RetryExhausted() != 0 {
		t.Fatalf("retry-exhausted = %d with a live backend present", p.RetryExhausted())
	}
}

func TestPostIsNotRetriedByDefault(t *testing.T) {
	p, front, _, servers := liveFixture(t)
	servers[0].Close()
	var failed, ok int
	for i := 0; i < 6; i++ {
		switch post(t, front.URL).StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusBadGateway:
			failed++
		}
	}
	if p.Retried() != 0 {
		t.Fatalf("POST retried %d times by default", p.Retried())
	}
	// The weighted rotation offers the dead backend 2 of every 3 picks:
	// both outcomes must occur.
	if failed == 0 || ok == 0 {
		t.Fatalf("failed=%d ok=%d, want a mix under no-retry POST", failed, ok)
	}
}

func TestPostRetriesWhenPolicyOptsIn(t *testing.T) {
	p, front, _, servers := liveFixture(t)
	p.SetRetryPolicy(RetryPolicy{MaxRetries: 3, RetryNonIdempotent: true})
	servers[0].Close()
	for i := 0; i < 6; i++ {
		if code := post(t, front.URL).StatusCode; code != http.StatusOK {
			t.Fatalf("request %d: status = %d with RetryNonIdempotent", i, code)
		}
	}
	if p.Retried() == 0 {
		t.Fatal("opt-in POST failover recorded no retries")
	}
}

func TestHealthEjectsDeadBackendAndReadmits(t *testing.T) {
	p, front, backends, servers := liveFixture(t)
	p.SetHealth(svcswitch.HealthConfig{EjectAfter: 2, ProbeAfter: 50 * time.Millisecond})
	deadAddr := strings.TrimPrefix(servers[0].URL, "http://")
	servers[0].Close()

	// Enough traffic to trip the ejection threshold.
	for i := 0; i < 8; i++ {
		resp := get(t, front.URL)
		io.Copy(io.Discard, resp.Body)
	}
	if p.EjectedTotal() != 1 {
		t.Fatalf("ejections = %d, want 1", p.EjectedTotal())
	}
	entries := p.Config().Entries()
	if !p.BackendEjected(entries[0]) {
		t.Fatal("dead backend still admitted")
	}
	// While ejected, requests no longer pay the dead-backend attempt.
	before := backends[1].Served()
	resp := get(t, front.URL)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || backends[1].Served() != before+1 {
		t.Fatal("traffic not pinned to the live backend during ejection")
	}

	// The backend returns on its old address; after the hold-off one
	// half-open probe re-admits it.
	ln, err := net.Listen("tcp", deadAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	revived := &http.Server{Handler: backends[0]}
	go revived.Serve(ln)
	t.Cleanup(func() { revived.Close() })

	time.Sleep(100 * time.Millisecond) // past ProbeAfter
	for i := 0; i < 12; i++ {
		resp := get(t, front.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d after revival", i, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	}
	if p.ReadmittedTotal() != 1 {
		t.Fatalf("readmissions = %d, want 1", p.ReadmittedTotal())
	}
	if p.BackendEjected(entries[0]) {
		t.Fatal("revived backend still ejected")
	}
	if backends[0].Served() == 0 {
		t.Fatal("revived backend received no traffic")
	}
}
