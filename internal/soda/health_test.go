package soda_test

import (
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/sim"
	"repro/internal/soda"
)

// Failure detector and self-healing tests: the suspect/confirm state
// machine, flap handling, and node recovery after host and guest death.

// fastDetector is a health configuration tight enough that tests settle
// in a few virtual seconds.
func fastDetector() soda.HealthConfig {
	return soda.HealthConfig{
		HeartbeatEvery: 100 * sim.Millisecond,
		RetryRecovery:  500 * sim.Millisecond,
		ProbeAfter:     200 * sim.Millisecond,
	}
}

func healingTestbed(t *testing.T, hosts []hostos.Spec) *hup.Testbed {
	t.Helper()
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		t.Fatal(err)
	}
	tb.EnableSelfHealing(fastDetector())
	return tb
}

func TestDetectorSuspectsConfirmsAndRecoversFlap(t *testing.T) {
	tb := healingTestbed(t, nil) // seattle + tacoma
	var kinds []soda.EventKind
	tb.Master.Observe(func(e soda.Event) {
		switch e.Kind {
		case soda.EventHostSuspected, soda.EventHostDead, soda.EventHostAlive:
			kinds = append(kinds, e.Kind)
		}
	})
	tb.K.RunFor(sim.Second)
	for _, hh := range tb.Master.HostHealth() {
		if hh.State != soda.HostAlive {
			t.Fatalf("%s = %v with heartbeats flowing", hh.Host, hh.State)
		}
		if hh.Beats == 0 {
			t.Fatalf("%s recorded no heartbeats", hh.Host)
		}
	}
	tb.Daemons[1].Crash()
	tb.K.RunFor(sim.Second)
	if got := tb.Master.HostHealth()[1].State; got != soda.HostDead {
		t.Fatalf("crashed host state = %v, want dead", got)
	}
	if got := tb.Master.HostHealth()[0].State; got != soda.HostAlive {
		t.Fatalf("surviving host state = %v", got)
	}
	tb.Daemons[1].Restore()
	tb.K.RunFor(sim.Second)
	if got := tb.Master.HostHealth()[1].State; got != soda.HostAlive {
		t.Fatalf("restored host state = %v, want alive", got)
	}
	want := []soda.EventKind{soda.EventHostSuspected, soda.EventHostDead, soda.EventHostAlive}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}

func TestDetectorShortFlapNeverConfirms(t *testing.T) {
	tb := healingTestbed(t, nil)
	var dead, suspected, alive int
	tb.Master.Observe(func(e soda.Event) {
		switch e.Kind {
		case soda.EventHostSuspected:
			suspected++
		case soda.EventHostDead:
			dead++
		case soda.EventHostAlive:
			alive++
		}
	})
	tb.K.RunFor(sim.Second)
	// Silent for 400ms: past the suspect deadline (3 beats, 300ms), short
	// of the confirm deadline (6 beats, 600ms).
	tb.Daemons[1].Crash()
	tb.K.RunFor(400 * sim.Millisecond)
	tb.Daemons[1].Restore()
	tb.K.RunFor(sim.Second)
	if suspected != 1 || alive != 1 {
		t.Fatalf("suspected=%d alive=%d, want one flap", suspected, alive)
	}
	if dead != 0 {
		t.Fatalf("short flap confirmed dead %d time(s)", dead)
	}
	if len(tb.Master.Recoveries()) != 0 {
		t.Fatal("flap triggered a recovery")
	}
}

// olympiaSpec is a third host so a replacement prime has a free target.
func olympiaSpec() hostos.Spec {
	s := hostos.Tacoma()
	s.Name = "olympia"
	return s
}

func TestHostDeathReprimesReplacementOnSurvivor(t *testing.T) {
	tb := healingTestbed(t, []hostos.Spec{hostos.Seattle(), hostos.Tacoma(), olympiaSpec()})
	spec, _ := webSpec(tb, t, "web", 2)
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Nodes) < 2 {
		t.Fatalf("nodes = %d, want a spread of 2", len(svc.Nodes))
	}
	var failed, recovered int
	tb.Master.Observe(func(e soda.Event) {
		switch e.Kind {
		case soda.EventNodeFailed:
			failed++
		case soda.EventNodeRecovered:
			recovered++
		}
	})
	victim := svc.Nodes[1]
	var victimDaemon *soda.Daemon
	for _, d := range tb.Daemons {
		if d.Host().Spec.Name == victim.HostName {
			victimDaemon = d
		}
	}
	victimDaemon.Crash()
	tb.K.RunFor(30 * sim.Second)

	if failed == 0 || recovered == 0 {
		t.Fatalf("failed=%d recovered=%d events", failed, recovered)
	}
	recs := tb.Master.Recoveries()
	if len(recs) == 0 {
		t.Fatal("no recovery records")
	}
	last := recs[len(recs)-1]
	if !last.OK {
		t.Fatalf("recovery failed: %+v", last)
	}
	if last.MTTR <= 0 {
		t.Fatalf("MTTR = %v", last.MTTR)
	}
	if got := svc.TotalCapacity(); got < spec.Requirement.N {
		t.Fatalf("capacity = %d after recovery, want >= %d", got, spec.Requirement.N)
	}
	// The dead node is gone from the service and its switch config.
	if _, ok := svc.NodeByName(victim.NodeName); ok {
		t.Fatal("dead node still listed")
	}
	addr := fmt.Sprintf("%s:%d", victim.IP, victim.Port)
	for _, e := range svc.Config.Entries() {
		if fmt.Sprintf("%s:%d", e.IP, e.Port) == addr {
			t.Fatal("dead backend still in the switch config")
		}
	}
	// No replacement landed on the dead host.
	for _, n := range svc.Nodes {
		if n.HostName == victim.HostName {
			t.Fatalf("node %s placed on the dead host", n.NodeName)
		}
		if !n.Guest.Alive() {
			t.Fatalf("node %s not running", n.NodeName)
		}
	}
}

func TestGuestCrashRecoversNode(t *testing.T) {
	tb := healingTestbed(t, nil)
	spec, _ := webSpec(tb, t, "web", 2)
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	victim := svc.Nodes[len(svc.Nodes)-1]
	victim.Guest.Crash("test")
	tb.K.RunFor(30 * sim.Second)

	recs := tb.Master.Recoveries()
	if len(recs) == 0 {
		t.Fatal("guest crash triggered no recovery")
	}
	if !recs[len(recs)-1].OK {
		t.Fatalf("recovery failed: %+v", recs[len(recs)-1])
	}
	if got := svc.TotalCapacity(); got < spec.Requirement.N {
		t.Fatalf("capacity = %d, want >= %d", got, spec.Requirement.N)
	}
	for _, n := range svc.Nodes {
		if !n.Guest.Alive() {
			t.Fatalf("node %s not running after recovery", n.NodeName)
		}
	}
	// Both hosts stayed alive: a guest crash is not a host failure.
	for _, hh := range tb.Master.HostHealth() {
		if hh.State != soda.HostAlive {
			t.Fatalf("%s = %v after a guest-only crash", hh.Host, hh.State)
		}
	}
}

// Regression: tearing a node down while its prime is still in flight
// must cancel the boot and leak nothing — no node, no reserved
// resources, no bridged IP.
func TestTeardownMidPrimeLeaksNothing(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "mid", 1)
	var serr error
	done := false
	tb.Agent.ServiceCreation("genome-key", spec,
		func(*soda.Service) { done = true },
		func(err error) { serr, done = err, true })
	cancelled := false
	for i := 0; i < 4000 && !done; i++ {
		tb.K.RunFor(20 * sim.Millisecond)
		if !cancelled {
			for _, d := range tb.Daemons {
				if d.Teardown(tb.Master.Epoch(), "mid-0") == nil {
					cancelled = true
				}
			}
		}
	}
	for tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if !cancelled {
		t.Fatal("never caught the prime in flight")
	}
	if !done {
		t.Fatal("creation never settled after mid-prime teardown")
	}
	if serr == nil {
		t.Fatal("creation succeeded although its only node was torn down mid-prime")
	}
	for i, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatalf("daemon %d leaked a node", i)
		}
		if got, want := d.Availability().CPUMHz, int(tb.Hosts[i].Spec.Clock/1e6); got != want {
			t.Fatalf("daemon %d leaked CPU: %d != %d", i, got, want)
		}
		if got, want := d.Availability().MemoryMB, tb.Hosts[i].Spec.MemoryMB; got != want {
			t.Fatalf("daemon %d leaked memory: %d != %d", i, got, want)
		}
	}
	// The slate is clean: the same service creates successfully now.
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatalf("creation after cancelled prime failed: %v", err)
	}
}
