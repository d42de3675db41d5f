package hup

import (
	"math"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

// accountingWindows compresses the SRE burn-rate windows so a
// two-minute simulated run exercises the full detection pipeline.
func accountingWindows() accounting.Options {
	return accounting.Options{
		EvalPeriod:  5 * sim.Second,
		Fast:        accounting.WindowPair{Short: 10 * sim.Second, Long: 40 * sim.Second, Threshold: 8},
		Slow:        accounting.WindowPair{Short: 40 * sim.Second, Long: 2 * sim.Minute, Threshold: 4},
		MinRequests: 20,
	}
}

// TestAccountingPipelineTwoServices is the subsystem's acceptance run:
// two web services share the testbed, one sized for its load and one
// driven far past its capacity. Across three seeds the pipeline must
// (a) meter CPU matching the host OS's own cycle accounting within 2%,
// (b) fire exactly one SLO violation for the overloaded service and
// none for the healthy one, and (c) produce billed CPU charges that
// reconcile with the windowed usage series.
func TestAccountingPipelineTwoServices(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tb, err := New(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
			t.Fatal(err)
		}
		rec := &soda.EventRecorder{}
		tb.Master.Observe(rec.Record)
		acct := tb.EnableAccounting(accountingWindows())

		img := WebContentImage("img", 2)
		if err := tb.Publish(img); err != nil {
			t.Fatal(err)
		}
		// An expensive request (~60M cycles) makes queueing visible at
		// this timescale: one client sees tens of milliseconds, forty
		// concurrent clients see seconds.
		params := appsvc.DefaultWebParams(8)
		params.ExtraCyclesPerRequest = 60e6
		slo := svcswitch.SLO{
			LatencyTarget:   250 * time.Millisecond,
			LatencyQuantile: 0.99,
			Availability:    0.99,
		}

		type run struct {
			name    string
			n       int
			clients int
			think   sim.Duration
			svc     *soda.Service
			gen     *workload.Generator
		}
		runs := []*run{
			{name: "healthy", n: 2, clients: 1, think: 200 * sim.Millisecond},
			{name: "overload", n: 1, clients: 40, think: 0},
		}
		for _, r := range runs {
			wd := NewWebDeployment(tb, params)
			svc, err := tb.CreateService("k", soda.ServiceSpec{
				Name: r.name, ImageName: img.Name, Repository: RepoIP,
				Requirement:  soda.Requirement{N: r.n, M: smallM()},
				GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
				SLO: slo,
			})
			if err != nil {
				t.Fatalf("seed %d: create %s: %v", seed, r.name, err)
			}
			r.svc = svc
			r.gen = workload.NewGenerator(tb.K, SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
			r.gen.RunClosedLoop(r.clients, r.think)
		}

		tb.K.RunFor(2 * sim.Minute)
		for _, r := range runs {
			r.gen.Stop()
		}
		acct.Sample() // settle metering to the final instant

		// (a) Metered CPU agrees with the host OS's cycle accounting.
		for _, r := range runs {
			var hostMHzSec float64
			for _, n := range r.svc.Nodes {
				hostMHzSec += n.Guest.Host().CPUCyclesFor(n.UID) / 1e6
			}
			got, ok := acct.Totals(r.name)
			if !ok {
				t.Fatalf("seed %d: %s not watched", seed, r.name)
			}
			if hostMHzSec <= 0 {
				t.Fatalf("seed %d: %s burned no cycles", seed, r.name)
			}
			if rel := math.Abs(got.CPUMHzSeconds-hostMHzSec) / hostMHzSec; rel > 0.02 {
				t.Fatalf("seed %d: %s metered %.0f MHz-s, host accounted %.0f (%.1f%% off)",
					seed, r.name, got.CPUMHzSeconds, hostMHzSec, rel*100)
			}
		}

		// (b) Exactly one violation for the overloaded service, none for
		// the healthy one.
		perSvc := map[string]int{}
		for _, e := range rec.Events() {
			if e.Kind == soda.EventSLOViolation {
				perSvc[e.Service]++
			}
		}
		if perSvc["overload"] != 1 {
			t.Fatalf("seed %d: overload violations = %d, want 1 (events: %v)",
				seed, perSvc["overload"], perSvc)
		}
		if perSvc["healthy"] != 0 {
			t.Fatalf("seed %d: healthy violations = %d, want 0", seed, perSvc["healthy"])
		}

		// (c) The billed CPU charge reconciles with the windowed series:
		// the run is far shorter than the coarse ring's horizon, so the
		// ring must contain every billed MHz-second, and the ASP's live
		// bill must match the meters.
		for _, r := range runs {
			u, _ := acct.Usage(r.name)
			var ringMHzSec float64
			for _, b := range u.Coarse {
				ringMHzSec += b.CPUMHzSeconds
			}
			if diff := math.Abs(ringMHzSec - u.CPUMHzSeconds); diff > 1e-6*math.Max(1, u.CPUMHzSeconds) {
				t.Fatalf("seed %d: %s coarse ring holds %.6f MHz-s, totals say %.6f",
					seed, r.name, ringMHzSec, u.CPUMHzSeconds)
			}
		}
		bill, ok := tb.Agent.Billing("asp")
		if !ok {
			t.Fatalf("seed %d: no bill", seed)
		}
		var meterSum float64
		for _, r := range runs {
			u, _ := acct.Totals(r.name)
			meterSum += u.CPUMHzSeconds
		}
		if rel := math.Abs(bill.CPUMHzSeconds-meterSum) / meterSum; rel > 1e-9 {
			t.Fatalf("seed %d: bill charges %.6f CPU MHz-s, meters say %.6f", seed, bill.CPUMHzSeconds, meterSum)
		}

		// The burn-rate gauges are live for the breached service.
		if u, _ := acct.Usage("overload"); u.SLO == nil || !u.SLO.Violating || u.SLO.Violations != 1 {
			t.Fatalf("seed %d: overload SLO view = %+v", seed, u.SLO)
		}
	}
}

// TestTeardownSettlesBill verifies the settlement path: tearing a
// service down folds its final metered totals into the ASP's account,
// and the usage gauges stop reporting it.
func TestTeardownSettlesBill(t *testing.T) {
	tb, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	acct := tb.EnableAccounting(accountingWindows())
	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	params := appsvc.DefaultWebParams(8)
	params.ExtraCyclesPerRequest = 5e6
	wd := NewWebDeployment(tb, params)
	svc, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 1, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tb.K, SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunClosedLoop(2, 50*sim.Millisecond)
	tb.K.RunFor(30 * sim.Second)
	gen.Stop()

	live, ok := acct.Totals("web")
	if !ok || live.CPUMHzSeconds <= 0 {
		t.Fatalf("no live usage before teardown: %+v ok=%v", live, ok)
	}
	if err := tb.Teardown("k", "web"); err != nil {
		t.Fatal(err)
	}
	if _, still := acct.Totals("web"); still {
		t.Fatal("service still watched after teardown")
	}
	bill, _ := tb.Agent.Billing("asp")
	if bill.CPUMHzSeconds < live.CPUMHzSeconds {
		t.Fatalf("bill %.3f MHz-s lost charges (live was %.3f)", bill.CPUMHzSeconds, live.CPUMHzSeconds)
	}
	if bill.MemoryGBHours <= 0 || bill.DiskGBHours <= 0 {
		t.Fatalf("reservation charges missing: %+v", bill)
	}
	if len(bill.OpenServices()) != 0 {
		t.Fatalf("bill still has open services: %v", bill.OpenServices())
	}
}
