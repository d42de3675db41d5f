package hup

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/autoscale"
	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/workload"
)

// flightDetector mirrors the tight health config the soda tests use so
// a crash is detected and recovered within a few virtual seconds.
func flightDetector() soda.HealthConfig {
	return soda.HealthConfig{
		HeartbeatEvery: 100 * sim.Millisecond,
		RetryRecovery:  500 * sim.Millisecond,
		ProbeAfter:     200 * sim.Millisecond,
	}
}

// runFlightCrashScenario runs one seeded host-crash run with the flight
// recorder on and returns the recorder, the Master's events in order,
// and the marshalled sealed incident bundles — the determinism test
// compares these byte-for-byte across two runs.
func runFlightCrashScenario(t *testing.T, seed uint64) (*flight.Recorder, []soda.Event, []byte) {
	t.Helper()
	tb, err := New(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	tb.EnableSelfHealing(flightDetector())
	rec, _ := tb.EnableFlightRecorder()
	var events soda.EventRecorder
	tb.Master.Observe(events.Record)

	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(8))
	svc, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "genome", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 2, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tb.K, SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunClosedLoop(2, 50*sim.Millisecond)

	tb.K.RunFor(2 * sim.Second) // steady state on the ring
	tb.Daemons[1].Crash()
	tb.K.RunFor(20 * sim.Second) // detect (~0.6s), recover, seal (+15s post window)
	gen.Stop()

	var sealed []*flight.Incident
	for _, inc := range rec.Incidents() {
		if !inc.Open {
			sealed = append(sealed, inc)
		}
	}
	blob, err := json.Marshal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	return rec, events.Events(), blob
}

// TestFlightRecorderCapturesCrashIncident is the subsystem acceptance
// run: a host crash must auto-capture a sealed host-dead incident whose
// records span the whole failure story — detection through recovery —
// with forensic context (metric delta, route tables, span subtree)
// attached.
func TestFlightRecorderCapturesCrashIncident(t *testing.T) {
	rec, _, _ := runFlightCrashScenario(t, 7)

	var dead *flight.Incident
	for _, inc := range rec.Incidents() {
		if inc.Trigger == "host-dead" {
			dead = inc
		}
	}
	if dead == nil {
		t.Fatalf("no host-dead incident captured; have %v", rec.StatsNow())
	}
	if dead.Open {
		t.Fatal("host-dead incident never sealed")
	}
	if dead.Subject != "tacoma" {
		t.Fatalf("incident subject = %q, want crashed host tacoma", dead.Subject)
	}
	// The bundle must tell the whole story: suspicion and confirmation
	// in the pre/post context, recovery completion in the post window.
	for _, msg := range []string{"host-suspected", "host-dead", "node-recovered"} {
		if !dead.HasRecord(msg) {
			var msgs []string
			for _, r := range dead.Records {
				msgs = append(msgs, r.Msg)
			}
			t.Fatalf("incident records missing %q; have %v", msg, msgs)
		}
	}
	if len(dead.Records) == 0 || dead.MetricDelta == nil {
		t.Fatal("incident missing records or metric delta")
	}
	if len(dead.Routes) == 0 {
		t.Fatal("incident missing route tables")
	}
	if len(dead.Spans) == 0 {
		t.Fatal("incident missing span subtree")
	}

	// The ring itself keeps flowing after the incident seals.
	if tail := rec.Tail(16, flight.LevelDebug, ""); len(tail) == 0 {
		t.Fatal("ring empty after run")
	}
	// A host-suspected incident for the same host must also exist (its
	// own trigger key), but repeated suspicion within the cooldown must
	// not flood the store.
	n := 0
	for _, inc := range rec.Incidents() {
		if inc.Trigger == "host-suspected" && inc.Subject == "tacoma" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("host-suspected incidents for tacoma = %d, want 1", n)
	}
}

// TestFlightRecorderDeterministicAcrossRuns: two same-seed runs under
// virtual time must produce byte-identical sealed incident bundles —
// the property that makes flight-recorder output diffable in CI.
func TestFlightRecorderDeterministicAcrossRuns(t *testing.T) {
	_, _, a := runFlightCrashScenario(t, 11)
	_, _, b := runFlightCrashScenario(t, 11)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed incident bundles differ:\nrun A: %s\nrun B: %s", a, b)
	}
	_, _, c := runFlightCrashScenario(t, 12)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical bundles; clock not advancing?")
	}
}

// TestFlightRingRecordsEachFactOnce: the ring holds each control-plane
// fact once, as its event record under component "event" stamped with
// the trace of the operation it belongs to. No span-end copy and no
// master or health line repeats an event; span trees reach incidents
// through their Spans instead.
func TestFlightRingRecordsEachFactOnce(t *testing.T) {
	rec, events, _ := runFlightCrashScenario(t, 7)
	ring := rec.Tail(int(rec.Seq()), flight.LevelDebug, "")
	if uint64(len(ring)) != rec.Seq() {
		t.Fatalf("ring wrapped: %d of %d records kept", len(ring), rec.Seq())
	}
	var got []flight.RecordView
	for _, r := range ring {
		switch {
		case r.Comp == "master" || r.Comp == "health":
			t.Errorf("ring holds %s line %q beside its event", r.Comp, r.Msg)
		case r.Msg == "span":
			t.Errorf("ring holds a span-end record: %v", r.Labels)
		case r.Comp == "event":
			got = append(got, r)
		}
	}
	if len(got) != len(events) {
		t.Fatalf("ring holds %d event records for %d events", len(got), len(events))
	}
	traced := map[soda.EventKind]int{}
	for i, ev := range events {
		r := got[i]
		if r.Msg != ev.Kind.String() || r.Labels["detail"] != ev.Detail || r.Trace != ev.Trace {
			t.Errorf("event %d %v recorded as %+v", i, ev, r)
		}
		switch ev.Kind {
		case soda.EventAdmitted, soda.EventServiceActive, soda.EventNodeRecovered:
			if r.Trace == 0 {
				t.Errorf("%s record carries no trace", r.Msg)
			}
			traced[ev.Kind]++
		}
	}
	for _, k := range []soda.EventKind{soda.EventAdmitted, soda.EventServiceActive, soda.EventNodeRecovered} {
		if traced[k] == 0 {
			t.Errorf("scenario raised no %s event", k)
		}
	}
}

// TestFlightRecordsAutoscaleTroubleAtWarn: a blocked and a failed
// autoscale change reach the ring at warn level; decisions and
// completions stay at info. Memory for only two instances on the
// testbed's two hosts makes the scale-up past two fail.
func TestFlightRecordsAutoscaleTroubleAtWarn(t *testing.T) {
	tb, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	tb.EnableAccounting(accounting.Options{})
	tb.EnableAutoscaling(AutoscaleOptions{TickEvery: 500 * sim.Millisecond})
	rec, _ := tb.EnableFlightRecorder()

	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(8))
	m := smallM()
	m.CPUMHz, m.MemoryMB = 16, 900
	svc, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 1, M: m},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
		Autoscale: autoscale.Policy{
			Min: 1, Max: 4, TargetUtilization: 0.5, HighWater: 0.7, LowWater: 0.2,
			MaxStep: 1, UpCooldown: 2 * sim.Second, DownCooldown: 5 * sim.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tb.K, SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunOpenLoop(120)
	tb.K.RunFor(10 * sim.Second)
	gen.Stop()

	var blocked, failed int
	for _, r := range rec.Tail(int(rec.Seq()), flight.LevelDebug, "event") {
		if r.Msg != "autoscale" {
			continue
		}
		detail, want := r.Labels["detail"], "info"
		switch {
		case strings.HasPrefix(detail, "blocked: "):
			blocked++
			want = "warn"
		case strings.Contains(detail, " failed: "):
			failed++
			want = "warn"
			if r.Trace == 0 {
				t.Errorf("failed resize %q carries no trace", detail)
			}
		}
		if r.Level != want {
			t.Errorf("autoscale %q at %s, want %s", detail, r.Level, want)
		}
	}
	if blocked == 0 || failed == 0 {
		t.Fatalf("want a blocked and a failed autoscale record; got %d blocked, %d failed", blocked, failed)
	}
}
