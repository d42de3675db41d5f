package soda_test

import (
	"strings"
	"testing"

	"repro/internal/appsvc"
	"repro/internal/hup"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/uml"
	"repro/internal/workload"
)

// The soda package is exercised through the hup assembly: these are the
// control-plane integration tests (creation, admission failure,
// authentication, billing, teardown, resizing).

func newTestbed(t *testing.T) *hup.Testbed {
	t.Helper()
	tb, err := hup.New(hup.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		t.Fatal(err)
	}
	return tb
}

func webSpec(tb *hup.Testbed, t *testing.T, name string, n int) (soda.ServiceSpec, *hup.WebDeployment) {
	t.Helper()
	img := hup.WebContentImage(name+"-img", 4)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	wd := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	m := soda.DefaultM()
	m.DiskMB = 2048
	return soda.ServiceSpec{
		Name:         name,
		ImageName:    img.Name,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: n, M: m},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
	}, wd
}

func TestServiceCreationEndToEnd(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 3)
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	if svc.State() != soda.Active {
		t.Fatalf("state = %v", svc.State())
	}
	if len(svc.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 (spread 2+1)", len(svc.Nodes))
	}
	if svc.TotalCapacity() != 3 {
		t.Fatalf("capacity = %d", svc.TotalCapacity())
	}
	// Node IPs come from the daemons' disjoint pools and are bridged.
	seen := map[string]bool{}
	for _, n := range svc.Nodes {
		if seen[string(n.IP)] {
			t.Fatalf("duplicate node IP %s", n.IP)
		}
		seen[string(n.IP)] = true
		if _, ok := tb.Net.Lookup(n.IP); !ok {
			t.Fatalf("node IP %s not bridged", n.IP)
		}
		if !n.Guest.Alive() {
			t.Fatalf("node %s guest not running", n.NodeName)
		}
		if n.BootTime <= 0 || n.DownloadTime <= 0 {
			t.Fatalf("node %s missing timings: %+v", n.NodeName, n)
		}
	}
	// The switch is live and the config matches Table 3's shape.
	if svc.Switch == nil || svc.Config.TotalCapacity() != 3 {
		t.Fatal("switch/config wrong")
	}
	if !strings.Contains(svc.Config.Render(), "BackEnd") {
		t.Fatal("config render wrong")
	}
}

func TestServiceCreationRequiresAuthentication(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 1)
	if _, err := tb.CreateService("wrong-key", spec); err == nil {
		t.Fatal("bad credential accepted")
	}
	if tb.Agent.Denied != 1 {
		t.Fatalf("denied = %d", tb.Agent.Denied)
	}
}

func TestAdmissionControlRejectsOversizedRequests(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "huge", 40)
	if _, err := tb.CreateService("genome-key", spec); err == nil {
		t.Fatal("oversized request admitted")
	}
	if tb.Master.Rejected() != 1 || tb.Master.Admitted() != 0 {
		t.Fatalf("admitted=%d rejected=%d", tb.Master.Admitted(), tb.Master.Rejected())
	}
	// A failed admission must not leak reservations.
	for _, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatal("nodes leaked after rejection")
		}
	}
}

func TestDuplicateServiceNameRejected(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 1)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	spec2, _ := webSpec(tb, t, "web", 1)
	spec2.ImageName = spec.ImageName
	if _, err := tb.CreateService("genome-key", spec2); err == nil {
		t.Fatal("duplicate service name admitted")
	}
}

func TestUnknownImageFailsPrimingAndRollsBack(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 2)
	spec.ImageName = "no-such-image"
	if _, err := tb.CreateService("genome-key", spec); err == nil {
		t.Fatal("creation with missing image succeeded")
	}
	for i, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatalf("daemon %d leaked nodes", i)
		}
		avail := d.Availability()
		if avail.CPUMHz != int(tb.Hosts[i].Spec.Clock/1e6) {
			t.Fatalf("daemon %d leaked reservations: %+v", i, avail)
		}
	}
	if _, ok := tb.Master.Service("web"); ok {
		t.Fatal("failed service still registered")
	}
}

func TestTeardownReleasesEverything(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 3)
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	nodeIPs := make([]simnet.IP, 0, 2)
	for _, n := range svc.Nodes {
		nodeIPs = append(nodeIPs, n.IP)
	}
	if err := tb.Teardown("genome-key", "web"); err != nil {
		t.Fatal(err)
	}
	if svc.State() != soda.TornDown {
		t.Fatalf("state = %v", svc.State())
	}
	for _, ip := range nodeIPs {
		if _, ok := tb.Net.Lookup(ip); ok {
			t.Fatalf("node IP %s still bridged after teardown", ip)
		}
	}
	for i, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatalf("daemon %d still has nodes", i)
		}
		if got, want := d.Availability().CPUMHz, int(tb.Hosts[i].Spec.Clock/1e6); got != want {
			t.Fatalf("daemon %d CPU not released: %d != %d", i, got, want)
		}
	}
	// Guests are stopped, not crashed.
	for _, n := range svc.Nodes {
		if n.Guest.State() != uml.Stopped {
			t.Fatalf("guest state = %v", n.Guest.State())
		}
	}
}

func TestBillingAccumulatesInstanceSeconds(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 3)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	start := tb.K.Now()
	tb.K.RunUntil(start.Add(100 * sim.Second))
	acct, ok := tb.Agent.Billing("bio-institute")
	if !ok {
		t.Fatal("no billing account")
	}
	// 3 instances for 100 seconds.
	if acct.InstanceSeconds < 295 || acct.InstanceSeconds > 305 {
		t.Fatalf("instance-seconds = %v, want ≈300", acct.InstanceSeconds)
	}
	if got := acct.OpenServices(); len(got) != 1 || got[0] != "web" {
		t.Fatalf("open services = %v", got)
	}
	if err := tb.Teardown("genome-key", "web"); err != nil {
		t.Fatal(err)
	}
	settled := mustBilling(t, tb, "bio-institute").InstanceSeconds
	tb.K.RunUntil(tb.K.Now().Add(50 * sim.Second))
	after := mustBilling(t, tb, "bio-institute").InstanceSeconds
	if after != settled {
		t.Fatalf("billing kept accruing after teardown: %v -> %v", settled, after)
	}
}

func mustBilling(t *testing.T, tb *hup.Testbed, asp string) *soda.BillingAccount {
	t.Helper()
	acct, ok := tb.Agent.Billing(asp)
	if !ok {
		t.Fatal("no billing account")
	}
	return acct
}

func TestResizeGrowInPlace(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 2) // spread: 1 on each host
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	before := len(svc.Nodes)
	resized, err := tb.Resize("genome-key", "web", 4)
	if err != nil {
		t.Fatal(err)
	}
	if resized.TotalCapacity() != 4 {
		t.Fatalf("capacity = %d", resized.TotalCapacity())
	}
	if len(resized.Nodes) != before {
		t.Fatalf("in-place growth changed node count %d -> %d", before, len(resized.Nodes))
	}
	if resized.Config.Version() < 2 {
		t.Fatal("config file not updated")
	}
	// Billing follows the new capacity.
	start := tb.K.Now()
	tb.K.RunUntil(start.Add(10 * sim.Second))
	if acct := mustBilling(t, tb, "bio-institute"); acct.InstanceSeconds < 39 {
		t.Fatalf("billing did not track resize: %v", acct.InstanceSeconds)
	}
}

func TestResizeShrinkTearsDownEmptyNodes(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 3) // 2 on seattle + 1 on tacoma
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	resized, err := tb.Resize("genome-key", "web", 1)
	if err != nil {
		t.Fatal(err)
	}
	if resized.TotalCapacity() != 1 {
		t.Fatalf("capacity = %d", resized.TotalCapacity())
	}
	if len(resized.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1 (empty node torn down)", len(resized.Nodes))
	}
	// The surviving node is the switch's home.
	if resized.Nodes[0].Guest == nil || !resized.Nodes[0].Guest.Alive() {
		t.Fatal("switch home node died during shrink")
	}
	_ = svc
}

func TestResizeServiceStillServesAfterGrowth(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 1)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	svc, err := tb.Resize("genome-key", "web", 3)
	if err != nil {
		t.Fatal(err)
	}
	if svc.TotalCapacity() != 3 {
		t.Fatalf("capacity = %d", svc.TotalCapacity())
	}
	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), sim.NewRNG(7))
	done := false
	gen.IssueN(50, func() { done = true })
	tb.K.Run()
	if !done || gen.Completed != 50 {
		t.Fatalf("completed %d of 50 after resize", gen.Completed)
	}
}

func TestResizeValidation(t *testing.T) {
	tb := newTestbed(t)
	if _, err := tb.Resize("genome-key", "ghost", 2); err == nil {
		t.Fatal("resize of unknown service accepted")
	}
	spec, _ := webSpec(tb, t, "web", 1)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Resize("genome-key", "web", 0); err == nil {
		t.Fatal("resize to zero accepted")
	}
	if _, err := tb.Resize("genome-key", "web", 500); err == nil {
		t.Fatal("impossible growth accepted")
	}
}

func TestResizeNoopIsImmediate(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 2)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	svc, err := tb.Resize("genome-key", "web", 2)
	if err != nil {
		t.Fatal(err)
	}
	if svc.TotalCapacity() != 2 {
		t.Fatalf("capacity = %d", svc.TotalCapacity())
	}
}

func TestCustomSwitchPolicyInstalledAtCreation(t *testing.T) {
	tb := newTestbed(t)
	spec, _ := webSpec(tb, t, "web", 2)
	spec.SwitchPolicy = svcswitch.NewLeastActive()
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Switch.Policy().Name() != "least-active" {
		t.Fatalf("policy = %s", svc.Switch.Policy().Name())
	}
}

func TestTwoServicesCoexistOnSharedHUP(t *testing.T) {
	tb := newTestbed(t)
	webSpecV, _ := webSpec(tb, t, "web", 2)
	if _, err := tb.CreateService("genome-key", webSpecV); err != nil {
		t.Fatal(err)
	}
	hpImg := hup.HoneypotImage("hp-img")
	if err := tb.Publish(hpImg); err != nil {
		t.Fatal(err)
	}
	hd := hup.NewHoneypotDeployment(tb)
	m := soda.DefaultM()
	m.DiskMB = 2048
	hpSvc, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "honeypot", ImageName: hpImg.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: hpImg.SystemServices,
		Behavior: hd.Behavior(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Master.Services(); len(got) != 2 {
		t.Fatalf("services = %v", got)
	}
	// Userids must differ across services even on the same host.
	web, _ := tb.Master.Service("web")
	for _, wn := range web.Nodes {
		for _, hn := range hpSvc.Nodes {
			if wn.HostName == hn.HostName && wn.Guest.UID == hn.Guest.UID {
				t.Fatal("UID collision across services")
			}
		}
	}
}
