package hup

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/autoscale"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
)

// attachment is one Testbed feature attach, as a test step.
type attachment struct {
	name   string
	attach func(*Testbed) error
}

// attachments lists every Testbed feature attach.
func attachments() []attachment {
	return []attachment{
		{"Accounting", func(tb *Testbed) error { tb.EnableAccounting(accounting.Options{}); return nil }},
		{"RequestTracing", func(tb *Testbed) error { tb.EnableRequestTracing(reqtrace.Config{}); return nil }},
		{"SelfHealing", func(tb *Testbed) error { tb.EnableSelfHealing(flightDetector()); return nil }},
		{"HA", func(tb *Testbed) error { _, err := tb.EnableHA(soda.HAConfig{}); return err }},
		{"ChunkDistribution", func(tb *Testbed) error { tb.EnableChunkDistribution(soda.ChunkDistConfig{}); return nil }},
		{"Chaos", func(tb *Testbed) error { tb.EnableChaos(5); return nil }},
		{"FlightRecorder", func(tb *Testbed) error { tb.EnableFlightRecorder(); return nil }},
		{"Autoscaling", func(tb *Testbed) error { tb.EnableAutoscaling(AutoscaleOptions{}); return nil }},
	}
}

// attachSpec is the service every attach test hosts: one small web
// node with an SLO target and an autoscale policy, so accounting,
// tracing and the control loop all have something to act on.
func attachSpec(tb *Testbed, t *testing.T) soda.ServiceSpec {
	t.Helper()
	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(8))
	return soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 1, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
		SLO: svcswitch.SLO{LatencyTarget: 40 * time.Millisecond},
		Autoscale: autoscale.Policy{
			Min: 1, Max: 3, TargetUtilization: 0.5, HighWater: 0.7, LowWater: 0.2,
			MaxStep: 1, UpCooldown: 2 * sim.Second, DownCooldown: 5 * sim.Second,
		},
	}
}

// runAttached attaches the steps in order, then runs create → one
// request through the switch → resize → teardown, and checks that
// nothing is left behind: no reservation, no assigned pool address,
// and — once the image caches are dropped — no disk in use.
func runAttached(t *testing.T, steps []attachment) {
	t.Helper()
	tb, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := st.attach(tb); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
	}
	svc, err := tb.CreateService("k", attachSpec(tb, t))
	if err != nil {
		t.Fatal(err)
	}
	served := false
	if err := (SwitchTarget{Switch: svc.Switch}).Route(tb.AddClient(), 512, func() { served = true }); err != nil {
		t.Fatal(err)
	}
	tb.K.RunFor(sim.Second)
	if !served {
		t.Fatal("request through the switch never completed")
	}
	if svc, err = tb.Resize("k", "web", 2); err != nil {
		t.Fatal(err)
	}
	if got := svc.TotalCapacity(); got != 2 {
		t.Fatalf("capacity after resize = %d, want 2", got)
	}
	if err := tb.Teardown("k", "web"); err != nil {
		t.Fatal(err)
	}
	tb.K.RunFor(sim.Second)
	for i, h := range tb.Hosts {
		d := tb.Daemons[i]
		if rs := h.Reservations(); len(rs) != 0 {
			t.Errorf("%s keeps %d reservation(s)", h.Spec.Name, len(rs))
		}
		_, pool, _ := hostAddressing(i)
		if free := d.FreeIPs(); free != pool.Size() {
			t.Errorf("%s pool has %d of %d addresses free", h.Spec.Name, free, pool.Size())
		}
		d.DropImageCache()
		// No disk in use: the whole disk can still be pinned.
		if err := h.UseDisk(h.Spec.DiskMB); err != nil {
			t.Errorf("%s disk still in use after DropImageCache: %v", h.Spec.Name, err)
		} else {
			h.FreeDisk(h.Spec.DiskMB)
		}
	}
}

// TestAttachOrderIndependent runs every pair of feature attaches in
// both orders through a full service lifecycle. Autoscaling reads its
// signals from accounting, so a pair with Autoscaling but not
// Accounting attaches Accounting first; the one order that breaks that
// requirement (Autoscaling before Accounting) panics by design and is
// covered by TestAttachPanics.
func TestAttachOrderIndependent(t *testing.T) {
	start := time.Now()
	all := attachments()
	acct := all[0]
	runs := 0
	for i := range all {
		for j := range all {
			if i == j || (all[i].name == "Autoscaling" && all[j].name == "Accounting") {
				continue
			}
			steps := []attachment{all[i], all[j]}
			if (all[i].name == "Autoscaling" || all[j].name == "Autoscaling") &&
				all[i].name != "Accounting" && all[j].name != "Accounting" {
				steps = append([]attachment{acct}, steps...)
			}
			runs++
			t.Run(all[i].name+"+"+all[j].name, func(t *testing.T) { runAttached(t, steps) })
		}
	}
	t.Logf("%d attach orders in %v", runs, time.Since(start).Round(time.Millisecond))
}

// mustPanic runs f and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestAttachPanics: every attach panics, naming itself, when called a
// second time or after the first service; EnableAutoscaling is exempt
// from the second rule but requires accounting.
func TestAttachPanics(t *testing.T) {
	newBed := func(t *testing.T) *Testbed {
		tb, err := New(Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	withService := func(t *testing.T) *Testbed {
		tb := newBed(t)
		if _, err := tb.CreateService("k", attachSpec(tb, t)); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	for _, a := range attachments() {
		a := a
		call := "Enable" + a.name
		t.Run(a.name+"/twice", func(t *testing.T) {
			tb := newBed(t)
			if a.name == "Autoscaling" {
				tb.EnableAccounting(accounting.Options{})
			}
			if err := a.attach(tb); err != nil {
				t.Fatal(err)
			}
			mustPanic(t, "hup: "+call+" called twice", func() { _ = a.attach(tb) })
		})
		if a.name == "Autoscaling" {
			continue
		}
		t.Run(a.name+"/late", func(t *testing.T) {
			tb := withService(t)
			mustPanic(t, "hup: "+call+" after the first service", func() { _ = a.attach(tb) })
		})
	}
	t.Run("Autoscaling/without-accounting", func(t *testing.T) {
		mustPanic(t, "hup: EnableAutoscaling before EnableAccounting", func() {
			newBed(t).EnableAutoscaling(AutoscaleOptions{})
		})
	})
	t.Run("Autoscaling/late", func(t *testing.T) {
		tb := newBed(t)
		tb.EnableAccounting(accounting.Options{})
		if _, err := tb.CreateService("k", attachSpec(tb, t)); err != nil {
			t.Fatal(err)
		}
		tb.EnableAutoscaling(AutoscaleOptions{})
		if !tb.AutoscalingEnabled() {
			t.Fatal("autoscaling armed after creation is not enabled")
		}
	})
}
