package hup

import (
	"math"
	"testing"

	"repro/internal/appsvc"
	"repro/internal/soda"
	"repro/internal/telemetry"
)

// within reports |a-b| <= tol; virtual-time spans should agree exactly,
// but compare through float seconds with a nanosecond of slack.
func within(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSpanTreeReproducesPrimingBreakdown is the acceptance check for the
// telemetry layer: one priming run under the tracer must yield the
// paper's Table 2 stage breakdown — download, boot, bootstrap — from the
// span tree alone, with parent-child timing consistent with the
// NodeInfo measurements the daemon reports independently.
func TestSpanTreeReproducesPrimingBreakdown(t *testing.T) {
	tb := deployTestbed(t)
	tracer := tb.Tracer
	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	svc, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 2, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
	})
	if err != nil {
		t.Fatal(err)
	}

	roots := tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("root spans = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "service.create" || root.Attrs["service"] != "web" || root.Open {
		t.Fatalf("root = %+v", root)
	}

	adm, ok := root.Child("admission")
	if !ok {
		t.Fatal("no admission span")
	}
	if adm.StartSec < root.StartSec || adm.EndSec > root.EndSec {
		t.Fatalf("admission [%g,%g] outside root [%g,%g]",
			adm.StartSec, adm.EndSec, root.StartSec, root.EndSec)
	}

	var primes []telemetry.SpanView
	for _, c := range root.Children {
		if c.Name == "prime" {
			primes = append(primes, c)
		}
	}
	if len(primes) != len(svc.Nodes) {
		t.Fatalf("prime spans = %d, want %d", len(primes), len(svc.Nodes))
	}

	const tol = 1e-9
	for _, prime := range primes {
		node := prime.Attrs["node"]
		info, ok := svc.NodeByName(node)
		if !ok {
			t.Fatalf("prime span names unknown node %q", node)
		}
		if prime.Attrs["host"] != info.HostName {
			t.Fatalf("prime host = %q, want %q", prime.Attrs["host"], info.HostName)
		}
		// Admission fully precedes priming.
		if prime.StartSec < adm.EndSec {
			t.Fatalf("prime started at %g before admission ended at %g", prime.StartSec, adm.EndSec)
		}
		// The daemon's slice reservation is recorded (synchronous in
		// virtual time, so possibly zero-width, but present and closed).
		if alloc, ok := prime.Child("slice.alloc"); !ok || alloc.Open {
			t.Fatalf("prime %s slice.alloc span = %+v, ok = %v", node, alloc, ok)
		}

		// The Table 2 stages, in order, each nested in the prime span.
		stages := []string{"image.download", "rootfs.tailor", "guest.boot", "service.bootstrap"}
		views := make(map[string]telemetry.SpanView, len(stages))
		prevEnd := prime.StartSec
		for _, name := range stages {
			sv, ok := prime.Child(name)
			if !ok {
				t.Fatalf("prime %s has no %s span", node, name)
			}
			if sv.Open {
				t.Fatalf("%s span still open", name)
			}
			if sv.StartSec < prime.StartSec-tol || sv.EndSec > prime.EndSec+tol {
				t.Fatalf("%s [%g,%g] outside prime [%g,%g]",
					name, sv.StartSec, sv.EndSec, prime.StartSec, prime.EndSec)
			}
			if sv.StartSec < prevEnd-tol {
				t.Fatalf("%s started at %g before previous stage ended at %g", name, sv.StartSec, prevEnd)
			}
			prevEnd = sv.EndSec
			views[name] = sv
		}

		// The span durations must agree with the daemon's own
		// measurements: download time exactly, and the three bootstrap
		// stages together must account for the full boot time.
		if got, want := views["image.download"].Duration(), info.DownloadTime.Seconds(); !within(got, want, tol) {
			t.Fatalf("download span = %gs, NodeInfo says %gs", got, want)
		}
		bootSum := views["rootfs.tailor"].Duration() +
			views["guest.boot"].Duration() +
			views["service.bootstrap"].Duration()
		if want := info.BootTime.Seconds(); !within(bootSum, want, tol) {
			t.Fatalf("tailor+boot+bootstrap = %gs, NodeInfo boot time %gs", bootSum, want)
		}
		// The stages are substantial, not degenerate zero-width marks.
		for _, name := range stages {
			if views[name].Duration() <= 0 {
				t.Fatalf("%s span has non-positive duration %g", name, views[name].Duration())
			}
		}
	}

	if _, ok := root.Child("switch.build"); !ok {
		t.Fatal("no switch.build span")
	}
}

// TestTelemetryMetricsFollowLifecycle checks the registry's counters and
// gauges through create → traffic → teardown.
func TestTelemetryMetricsFollowLifecycle(t *testing.T) {
	tb := deployTestbed(t)
	reg, tracer := tb.Registry, tb.Tracer
	img := WebContentImage("img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	svc, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "web", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 2, M: smallM()},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("soda_master_admitted_total"); got != 1 {
		t.Fatalf("admitted = %d", got)
	}
	if got := snap.Gauge("soda_master_services"); got != 1 {
		t.Fatalf("services gauge = %g", got)
	}
	var primed, bootObs int64
	for _, c := range snap.Counters {
		if c.Name == "soda_daemon_primed_total" {
			primed += c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "soda_prime_boot_seconds" {
			bootObs += h.Count
		}
	}
	if primed != 2 || bootObs != 2 {
		t.Fatalf("primed = %d, boot observations = %d, want 2 and 2", primed, bootObs)
	}

	// Drive traffic; the switch's counters and histograms must agree
	// with its accessors.
	client := tb.AddClient()
	const requests = 20
	doneCount := 0
	for i := 0; i < requests; i++ {
		SwitchTarget{Switch: svc.Switch}.Route(client, 256, func() { doneCount++ })
	}
	tb.K.Run()
	if doneCount != requests {
		t.Fatalf("completed %d/%d requests", doneCount, requests)
	}
	snap = reg.Snapshot()
	svcLabel := telemetry.L("service", "web")
	if got := snap.Counter("soda_switch_routed_total", svcLabel); int(got) != svc.Switch.Routed() {
		t.Fatalf("routed counter = %d, accessor = %d", got, svc.Switch.Routed())
	}
	var latCount int64
	for _, h := range snap.Histograms {
		if h.Name == "soda_switch_latency_seconds" && h.Labels["service"] == "web" {
			latCount = h.Count
		}
	}
	if int(latCount) != requests {
		t.Fatalf("latency observations = %d, want %d", latCount, requests)
	}

	if err := tb.Teardown("k", "web"); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Gauge("soda_master_services"); got != 0 {
		t.Fatalf("services gauge after teardown = %g", got)
	}
	if got := snap.Counter("soda_master_torndown_total"); got != 1 {
		t.Fatalf("torndown = %d", got)
	}
	found := false
	for _, r := range tracer.Roots() {
		if r.Name == "service.teardown" {
			found = true
		}
	}
	if !found {
		t.Fatal("no service.teardown span")
	}
}
