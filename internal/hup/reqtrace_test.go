package hup

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/appsvc"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

// runReqtraceScenario drives one seeded workload with request tracing
// on and returns the store plus the marshalled retained records — the
// determinism test compares these byte-for-byte across runs.
func runReqtraceScenario(t *testing.T, seed uint64) (*Testbed, *reqtrace.Store, []byte) {
	t.Helper()
	tb, err := New(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	st := tb.EnableRequestTracing(reqtrace.Config{Capacity: 128, HeadEvery: 16})

	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(8))
	svc, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 2, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tb.K, SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	// Closed-loop with jittered think time so the arrival pattern (and
	// therefore the retained ring) genuinely depends on the seed.
	gen.RunClosedLoop(4, 10*sim.Millisecond)
	tb.K.RunFor(3 * sim.Second)
	gen.Stop()

	blob, err := json.Marshal(st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return tb, st, blob
}

// TestRequestTracingEndToEnd: a traced workload retains records with
// full per-stage attribution, the stages partition the total exactly
// (virtual time has no measurement slop), and every histogram exemplar
// resolves to a retained trace.
func TestRequestTracingEndToEnd(t *testing.T) {
	tb, st, _ := runReqtraceScenario(t, 5)

	recs := st.Snapshot("web")
	if len(recs) == 0 {
		t.Fatal("no traces retained")
	}
	// ~1k requests over 3 virtual seconds with HeadEvery 16 → a healthy
	// head sample even if nothing is slow, errored, or retried.
	if len(recs) < 10 {
		t.Fatalf("retained %d traces, want ≥ 10", len(recs))
	}
	for _, rec := range recs {
		if rec.Service != "web" || rec.ID == 0 || rec.Why == 0 {
			t.Fatalf("malformed record: %+v", rec)
		}
		if rec.Why&reqtrace.KeptHead != 0 && rec.ID%16 != 0 {
			t.Fatalf("head-retained record off the 1-in-16 grid: %+v", rec)
		}
		if rec.Dropped {
			continue
		}
		if rec.Backend == "" || rec.TotalNs <= 0 || rec.ServeNs <= 0 {
			t.Fatalf("incomplete successful record: %+v", rec)
		}
		if sum := rec.QueueNs + rec.RouteNs + rec.UpstreamNs + rec.ServeNs; sum != rec.TotalNs {
			t.Fatalf("stages do not partition the total (%d != %d): %+v", sum, rec.TotalNs, rec)
		}
	}

	// Exemplar contract: with tracing on, the switch stamps a trace ID
	// only when the request was retained — so every exposed exemplar
	// must resolve via the store.
	exemplars := 0
	for _, h := range tb.Registry.Snapshot().Histograms {
		if h.Labels["service"] != "web" {
			continue
		}
		for _, ex := range h.Exemplars {
			if ex.Trace == 0 {
				continue
			}
			exemplars++
			if _, ok := st.Lookup(ex.Trace); !ok {
				t.Fatalf("%s exemplar trace=%d does not resolve", h.Name, ex.Trace)
			}
		}
	}
	if exemplars == 0 {
		t.Fatal("no trace-carrying exemplars exposed")
	}
}

// TestRequestTracingDeterministicAcrossRuns: same-seed runs retain
// byte-identical rings — IDs, stage durations, and retention verdicts
// are all virtual-time-exact.
func TestRequestTracingDeterministicAcrossRuns(t *testing.T) {
	_, _, a := runReqtraceScenario(t, 21)
	_, _, b := runReqtraceScenario(t, 21)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed retained rings differ:\nrun A: %s\nrun B: %s", a, b)
	}
	_, _, c := runReqtraceScenario(t, 22)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical rings")
	}
}

// TestEnableRequestTracingBeforeCreate: tracing attached before the
// first service gives that service's switch a collector from the
// store, and the collector inherits the service's SLO latency target as
// its slow threshold.
func TestEnableRequestTracingBeforeCreate(t *testing.T) {
	tb, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	st := tb.EnableRequestTracing(reqtrace.Config{})
	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(8))
	spec := soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 1, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
		SLO: svcswitch.SLO{LatencyTarget: 40 * time.Millisecond},
	}
	svc, err := tb.CreateService("k", spec)
	if err != nil {
		t.Fatal(err)
	}
	c := svc.Switch.RequestTracer()
	if c == nil {
		t.Fatal("switch built after EnableRequestTracing has no collector")
	}
	if c != st.Collector("web") {
		t.Fatal("switch collector is not the store's collector for the service")
	}
	if got := c.SlowThreshold(); got.Milliseconds() != 40 {
		t.Fatalf("slow threshold %v, want the 40ms SLO target", got)
	}
}
