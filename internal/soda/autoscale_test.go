package soda_test

import (
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/autoscale"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/workload"
)

// Closed-loop autoscaling tests: signal-driven scale-up and scale-down,
// journal replay fidelity of the controller state, and the
// exactly-once resize guarantee across a mid-flight failover.

// autoWebSpec is webSpec with a small CPU reservation (so a modest open
// -loop load saturates it) and an autoscale policy attached.
func autoWebSpec(tb *hup.Testbed, t *testing.T, name string, pol autoscale.Policy) (soda.ServiceSpec, *hup.WebDeployment) {
	t.Helper()
	spec, wd := webSpec(tb, t, name, 1)
	spec.Requirement.M.CPUMHz = 16
	spec.Autoscale = pol
	return spec, wd
}

func autoPolicy() autoscale.Policy {
	return autoscale.Policy{
		Min:               1,
		Max:               3,
		TargetUtilization: 0.5,
		HighWater:         0.7,
		LowWater:          0.2,
		MaxStep:           1,
		UpCooldown:        2 * sim.Second,
		DownCooldown:      5 * sim.Second,
	}
}

func reportFor(t *testing.T, m *soda.Master, name string) soda.AutoscalerView {
	t.Helper()
	for _, v := range m.AutoscaleReport() {
		if v.Service == name {
			return v
		}
	}
	t.Fatalf("service %q missing from autoscale report", name)
	return soda.AutoscalerView{}
}

func TestAutoscaleScalesUpAndBackDown(t *testing.T) {
	tb := newTestbed(t)
	tb.EnableAccounting(accounting.Options{})
	tb.EnableAutoscaling(hup.AutoscaleOptions{TickEvery: 500 * sim.Millisecond})
	rec := &soda.EventRecorder{}
	tb.Master.Observe(rec.Record)

	spec, _ := autoWebSpec(tb, t, "web", autoPolicy())
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	// The policy rides the service configuration file, so the switch's
	// rendered config documents the control loop.
	if !strings.Contains(svc.Config.Render(), "# autoscale min=1 max=3") {
		t.Fatalf("config missing autoscale stanza:\n%s", svc.Config.Render())
	}

	// Saturate the 16 MHz reservation: the loop must add capacity.
	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunOpenLoop(120)
	tb.K.RunFor(30 * sim.Second)

	up := reportFor(t, tb.Master, "web")
	if up.Capacity <= 1 || up.Ups == 0 {
		t.Fatalf("no scale-up under saturating load: %+v", up)
	}
	if up.Capacity > 3 {
		t.Fatalf("capacity %d exceeded max 3", up.Capacity)
	}

	// Trough: stop the load, let the usage meter decay, and the loop
	// must return the service to its floor without flapping.
	gen.Stop()
	tb.K.RunFor(60 * sim.Second)

	down := reportFor(t, tb.Master, "web")
	if down.Capacity != 1 {
		t.Fatalf("capacity %d after trough, want the min of 1 (%+v)", down.Capacity, down)
	}
	if down.Downs == 0 {
		t.Fatalf("no scale-down recorded: %+v", down)
	}
	// Hysteresis + cooldowns bound oscillation: a clean ramp/trough run
	// needs at most max-1 moves in each direction.
	if down.Ups > 2 || down.Downs > 2 {
		t.Fatalf("flapping: %d up(s), %d down(s)", down.Ups, down.Downs)
	}
	if down.Pending {
		t.Fatalf("resize still pending at rest: %+v", down)
	}
	if rec.CountOf(soda.EventAutoscale) == 0 {
		t.Fatal("no autoscale events emitted")
	}
}

func TestAutoscaleTickIgnoresTornDownService(t *testing.T) {
	tb := newTestbed(t)
	tb.EnableAccounting(accounting.Options{})
	tb.EnableAutoscaling(hup.AutoscaleOptions{})
	spec, _ := autoWebSpec(tb, t, "web", autoPolicy())
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	if len(tb.Master.AutoscaleReport()) != 1 {
		t.Fatal("armed service missing from report")
	}
	if err := tb.Teardown("genome-key", "web"); err != nil {
		t.Fatal(err)
	}
	tb.Master.AutoscaleTick() // must not panic or resurrect state
	if got := tb.Master.AutoscaleReport(); len(got) != 0 {
		t.Fatalf("torn-down service still armed: %+v", got)
	}
}

// autoscaleHARun drives a full ramp/trough under HA and returns the
// leader's digest, the journal, and the final controller view.
func autoscaleHARun(t *testing.T) (string, []byte, soda.AutoscalerView) {
	t.Helper()
	tb := haTestbed(t, nil)
	tb.EnableAccounting(accounting.Options{})
	tb.EnableAutoscaling(hup.AutoscaleOptions{TickEvery: 500 * sim.Millisecond})
	spec, _ := autoWebSpec(tb, t, "web", autoPolicy())
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunOpenLoop(120)
	tb.K.RunFor(20 * sim.Second)
	gen.Stop()
	tb.K.RunFor(40 * sim.Second)

	live := tb.Master.StateDigest()
	journal := append([]byte(nil), tb.Cluster.Journal().Bytes()...)
	return live, journal, reportFor(t, tb.Master, "web")
}

func TestAutoscaleJournalReplayDigestMatchesLive(t *testing.T) {
	live, journal, view := autoscaleHARun(t)
	if view.Ups == 0 || view.Downs == 0 {
		t.Fatalf("run exercised no scaling: %+v", view)
	}
	replayed, rep := soda.ReplayDigest(journal)
	if rep.Truncated {
		t.Fatalf("clean journal reported truncated: %s", rep.Reason)
	}
	if replayed != live {
		t.Fatalf("replayed digest %s != live digest %s after %d record(s)",
			replayed, live, rep.Records)
	}
}

func TestAutoscaleDeterministicUnderSeed(t *testing.T) {
	d1, j1, v1 := autoscaleHARun(t)
	d2, j2, v2 := autoscaleHARun(t)
	if d1 != d2 {
		t.Fatalf("same-seed state digests differ: %s vs %s", d1, d2)
	}
	if string(j1) != string(j2) {
		t.Fatalf("same-seed journals differ: %d vs %d bytes", len(j1), len(j2))
	}
	if v1 != v2 {
		t.Fatalf("same-seed controller views differ:\n%+v\n%+v", v1, v2)
	}
}

// TestAutoscaleFailoverMidResizeScalesExactlyOnce crashes the leader in
// the window between journaling an autoscale decision and completing
// the resize. The new leader must re-issue the journaled pending resize
// to its absolute target — exactly once: the capacity lands on the
// target, and the completed-ups counter shows a single move.
func TestAutoscaleFailoverMidResizeScalesExactlyOnce(t *testing.T) {
	// Two identical large hosts, and a memory requirement sized so the
	// home host cannot grow in place: the scale-up must prime a fresh
	// node over the network, which opens a wide mid-flight window to
	// crash the leader in.
	second := hostos.Seattle()
	second.Name = "spokane"
	tb := haTestbed(t, []hostos.Spec{hostos.Seattle(), second})
	tb.EnableAccounting(accounting.Options{})
	tb.EnableAutoscaling(hup.AutoscaleOptions{TickEvery: 500 * sim.Millisecond})
	pol := autoPolicy()
	pol.Max = 2
	pol.DownCooldown = 10 * sim.Minute // keep the trough from shrinking mid-test
	spec, _ := autoWebSpec(tb, t, "web", pol)
	spec.Requirement.M.MemoryMB = 1100
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunOpenLoop(120)

	// Catch the controller with a journaled-but-incomplete resize.
	var pending soda.AutoscalerView
	caught := false
	for waited := sim.Duration(0); waited < 30*sim.Second; waited += sim.Millisecond {
		tb.K.RunFor(sim.Millisecond)
		if v := reportFor(t, tb.Master, "web"); v.Pending {
			pending, caught = v, true
			break
		}
	}
	if !caught {
		t.Fatal("no pending resize observed under saturating load")
	}
	if pending.PendingDir != "up" || pending.PendingTarget != 2 {
		t.Fatalf("pending resize = %+v, want up to 2", pending)
	}
	tb.Cluster.HaltLeader()
	runUntilFailover(t, tb, 10*sim.Second)
	// Load keeps running across the takeover: if the re-issued resize
	// races the reclamation of the old leader's fenced half-prime, the
	// cooldown doubles as retry backoff and the next decision lands it.
	for waited := sim.Duration(0); waited < 30*sim.Second; waited += 100 * sim.Millisecond {
		tb.K.RunFor(100 * sim.Millisecond)
		if v := reportFor(t, tb.Cluster.Leader(), "web"); v.Capacity == 2 && !v.Pending {
			break
		}
	}
	gen.Stop()

	lead := tb.Cluster.Leader()
	after := reportFor(t, lead, "web")
	if after.Pending {
		t.Fatalf("pending resize never completed after failover: %+v", after)
	}
	if after.Capacity != 2 {
		t.Fatalf("capacity %d after failover, want the journaled target 2", after.Capacity)
	}
	if after.Ups != 1 {
		t.Fatalf("completed ups = %d, want exactly 1 (no double-scale)", after.Ups)
	}
	newSvc, ok := lead.Service("web")
	if !ok {
		t.Fatal("service lost across failover")
	}
	if newSvc.TotalCapacity() != 2 {
		t.Fatalf("live capacity %d != reported 2", newSvc.TotalCapacity())
	}
}
