package hup

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/appsvc"
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
// recorder on and returns the recorder plus the marshalled sealed
// incident bundles — the determinism test compares these byte-for-byte
// across two runs.
func runFlightCrashScenario(t *testing.T, seed uint64) (*flight.Recorder, []byte) {
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
	return rec, blob
}

// TestFlightRecorderCapturesCrashIncident is the subsystem acceptance
// run: a host crash must auto-capture a sealed host-dead incident whose
// records span the whole failure story — detection through recovery —
// with forensic context (metric delta, route tables, span subtree)
// attached.
func TestFlightRecorderCapturesCrashIncident(t *testing.T) {
	rec, _ := runFlightCrashScenario(t, 7)

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
	_, a := runFlightCrashScenario(t, 11)
	_, b := runFlightCrashScenario(t, 11)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed incident bundles differ:\nrun A: %s\nrun B: %s", a, b)
	}
	_, c := runFlightCrashScenario(t, 12)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical bundles; clock not advancing?")
	}
}
