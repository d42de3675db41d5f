package api

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/hup"
	"repro/internal/sim"
	"repro/internal/soda"
)

func getHealthz(t *testing.T, url string) HealthzView {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	return decode[HealthzView](t, resp)
}

func TestHealthzSingleMaster(t *testing.T) {
	srv, _ := apiFixture(t)
	hz := getHealthz(t, srv.URL)
	if hz.Status != "ok" || hz.HA || hz.Role != "single" || hz.Epoch != 0 {
		t.Fatalf("healthz = %+v, want ok single-master", hz)
	}
}

func TestHealthzReportsHARoleAndFailover(t *testing.T) {
	tb, err := hup.New(hup.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		t.Fatal(err)
	}
	tb.EnableSelfHealing(soda.HealthConfig{
		HeartbeatEvery: 100 * sim.Millisecond,
	})
	if _, err := tb.EnableHA(soda.HAConfig{
		BeatEvery:   100 * sim.Millisecond,
		ResyncDelay: 50 * sim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(tb).Handler())
	t.Cleanup(srv.Close)

	publishAndCreate(t, srv, "web", 2)
	hz := getHealthz(t, srv.URL)
	if !hz.HA || hz.Role != "leader" || hz.Leader != "primary" || hz.Epoch != 1 {
		t.Fatalf("pre-failover healthz = %+v", hz)
	}
	if hz.JournalSeq == 0 || hz.JournalBytes == 0 {
		t.Fatalf("journal empty after a creation: %+v", hz)
	}

	tb.Cluster.HaltLeader()
	tb.K.RunFor(10 * sim.Second)
	hz = getHealthz(t, srv.URL)
	if hz.Role != "standby" || hz.Leader != "standby" || hz.Epoch != 2 || hz.Failovers != 1 {
		t.Fatalf("post-failover healthz = %+v", hz)
	}
	// The primary is still crash-stopped, but the standby leads: the
	// control plane as a whole is healthy again.
	if hz.Status != "ok" {
		t.Fatalf("post-failover status = %s, want ok", hz.Status)
	}
	if hz.LastMTTRS <= 0 {
		t.Fatalf("post-failover healthz lacks MTTR: %+v", hz)
	}
}
