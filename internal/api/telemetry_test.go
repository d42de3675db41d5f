package api

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestMetricsAndTraceServedWithoutSetup: hup.New builds the registry
// and tracer, so a fresh testbed serves both endpoints with no further
// call.
func TestMetricsAndTraceServedWithoutSetup(t *testing.T) {
	srv, _ := apiFixture(t)
	if resp := get(t, srv.URL+"/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics on a fresh testbed = %d", resp.StatusCode)
	}
	if resp := get(t, srv.URL+"/trace"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace on a fresh testbed = %d", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, _ := apiFixture(t)
	publishAndCreate(t, srv, "web", 2)

	// Plain-text default.
	resp := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"soda_master_admitted_total 1",
		"soda_master_services 1",
		"soda_daemon_primed_total",
		"soda_prime_boot_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// JSON form decodes into a telemetry.Snapshot.
	resp = get(t, srv.URL+"/metrics?format=json")
	snap := decode[telemetry.Snapshot](t, resp)
	if got := snap.Counter("soda_master_admitted_total"); got != 1 {
		t.Fatalf("snapshot admitted = %d", got)
	}
	var primed int64
	for _, c := range snap.Counters {
		if c.Name == "soda_daemon_primed_total" {
			primed += c.Value
		}
	}
	if primed != 2 {
		t.Fatalf("snapshot primed = %d", primed)
	}
}

func TestTraceExposition(t *testing.T) {
	srv, _ := apiFixture(t)
	publishAndCreate(t, srv, "web", 1)

	resp := get(t, srv.URL+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace = %d", resp.StatusCode)
	}
	roots := decode[[]telemetry.SpanView](t, resp)
	if len(roots) != 1 || roots[0].Name != "service.create" {
		t.Fatalf("trace roots = %+v", roots)
	}
	if _, ok := roots[0].Find("guest.boot"); !ok {
		t.Fatal("span tree over the wire lost guest.boot")
	}

	resp = get(t, srv.URL+"/trace?format=text")
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "service.create") || !strings.Contains(string(body), "image.download") {
		t.Fatalf("text trace = %q", string(body))
	}
}
