package soda_test

import (
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/uml"
)

// Failure-injection tests: every daemon-level resource can run out, and
// every exhaustion must fail the request cleanly and leak nothing.

func TestIPPoolExhaustionFailsPrimingCleanly(t *testing.T) {
	// Each daemon's pool holds 20 addresses. Create 20 single-node
	// services on a one-host HUP, then one more: it must fail, and the
	// 20 must keep running.
	tb, err := hup.New(hup.Config{Hosts: []hostos.Spec{bigHost()}, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	img := hup.HoneypotImage("tiny-img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	small := soda.MachineConfig{CPUMHz: 50, MemoryMB: 32, DiskMB: 64, BandwidthMbps: 0.5}
	for i := 0; i < 20; i++ {
		if _, err := tb.CreateService("k", soda.ServiceSpec{
			Name: fmt.Sprintf("svc-%02d", i), ImageName: img.Name, Repository: hup.RepoIP,
			Requirement: soda.Requirement{N: 1, M: small}, GuestProfile: img.SystemServices,
		}); err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
	}
	if _, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "one-too-many", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: small}, GuestProfile: img.SystemServices,
	}); err == nil {
		t.Fatal("21st service fit in a 20-address pool")
	}
	if got := tb.Daemons[0].Nodes(); got != 20 {
		t.Fatalf("nodes = %d, want the 20 healthy ones", got)
	}
	// Tear one down; its address returns and a new service fits again.
	if err := tb.Teardown("k", "svc-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "replacement", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: small}, GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatalf("replacement after release failed: %v", err)
	}
}

// bigHost has plenty of CPU/memory so only the IP pool binds.
func bigHost() hostos.Spec {
	s := hostos.Seattle()
	s.Clock *= 4
	s.MemoryMB *= 8
	s.DiskMB *= 4
	s.NICMbps = 1000
	return s
}

func TestDiskExhaustionFailsPrimingCleanly(t *testing.T) {
	spec := hostos.Seattle()
	spec.DiskMB = 2500 // barely two reservations + one image
	tb, err := hup.New(hup.Config{Hosts: []hostos.Spec{spec}, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.DefaultM() // 1GB disk each
	if _, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "a", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 2, M: m}, GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	// 2048 of 2500 MB reserved: a third M no longer fits.
	if _, err := tb.CreateService("k", soda.ServiceSpec{
		Name: "b", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: img.SystemServices,
	}); err == nil {
		t.Fatal("disk overcommit admitted")
	}
	if tb.Daemons[0].Nodes() != 1 {
		t.Fatalf("nodes = %d", tb.Daemons[0].Nodes())
	}
}

func TestPrimeUnknownRepositoryFails(t *testing.T) {
	tb := newTestbed(t)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "x", ImageName: img.Name, Repository: "9.9.9.9",
		Requirement: soda.Requirement{N: 1, M: soda.DefaultM()}, GuestProfile: img.SystemServices,
	}); err == nil {
		t.Fatal("unknown repository accepted")
	}
	for _, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatal("leak after repository failure")
		}
	}
}

// A lone prime of an image whose download outlasts the 120 s attempt
// floor must get a deadline sized from the image, as a mass prime does:
// a 1629 MB image takes ~138 s over the testbed's 100 Mbps link, so a
// fixed 120 s deadline times out every attempt and fails the prime.
func TestLonePrimeOfLargeImageOutlastsFloorDeadline(t *testing.T) {
	tb, err := hup.New(hup.Config{Hosts: []hostos.Spec{hostos.Seattle()}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		t.Fatal(err)
	}
	img := image.NewBuilder("big").
		WithService("/usr/sbin/httpd", 1<<20, 8080).
		PadToMB(1629).
		MustBuild()
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.DefaultM()
	m.DiskMB = 2048
	svc, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "big", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatalf("lone prime of a %d MB image: %v", img.SizeMB(), err)
	}
	if d := svc.Nodes[0].DownloadTime; d <= 120*sim.Second {
		t.Fatalf("download took %v; the fixture must outlast the 120 s floor", d)
	}
	if r := tb.Daemons[0].DownloadRetries(); r != 0 {
		t.Fatalf("%d download retries, want none", r)
	}
}

func TestImageRequiringServiceOutsideProfileFailsBoot(t *testing.T) {
	tb := newTestbed(t)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.DefaultM()
	m.DiskMB = 2048
	// Claim a profile that lacks what the image requires: tailoring must
	// reject it and the daemon must roll everything back.
	if _, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "x", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement:  soda.Requirement{N: 1, M: m},
		GuestProfile: []string{"network"}, // image needs the tomsrtbt set
	}); err == nil {
		t.Fatal("impossible tailoring accepted")
	}
	for i, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatalf("daemon %d leaked a node", i)
		}
		if got, want := d.Availability().CPUMHz, int(tb.Hosts[i].Spec.Clock/1e6); got != want {
			t.Fatalf("daemon %d leaked CPU: %d != %d", i, got, want)
		}
	}
}

func TestScaleManyServicesAcrossManyHosts(t *testing.T) {
	// A 6-host HUP hosting 12 services concurrently, then torn down to
	// zero: placements must respect every host's capacity, and teardown
	// must return the platform to pristine.
	hosts := make([]hostos.Spec, 6)
	for i := range hosts {
		if i%2 == 0 {
			hosts[i] = hostos.Seattle()
		} else {
			hosts[i] = hostos.Tacoma()
		}
		hosts[i].Name = fmt.Sprintf("host-%d", i)
	}
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "k"); err != nil {
		t.Fatal(err)
	}
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.MachineConfig{CPUMHz: 256, MemoryMB: 64, DiskMB: 256, BandwidthMbps: 2}
	for i := 0; i < 12; i++ {
		svc, err := tb.CreateService("k", soda.ServiceSpec{
			Name: fmt.Sprintf("svc-%02d", i), ImageName: img.Name, Repository: hup.RepoIP,
			Requirement: soda.Requirement{N: 1 + i%3, M: m}, GuestProfile: img.SystemServices,
		})
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		for _, n := range svc.Nodes {
			if n.Guest.State() != uml.Running {
				t.Fatalf("service %d node %s not running", i, n.NodeName)
			}
		}
	}
	if got := len(tb.Master.Services()); got != 12 {
		t.Fatalf("services = %d", got)
	}
	// No host is overcommitted.
	for i, d := range tb.Daemons {
		avail := d.Availability()
		if avail.CPUMHz < 0 || avail.MemoryMB < 0 || avail.DiskMB < 0 || avail.BandwidthMbps < 0 {
			t.Fatalf("host %d overcommitted: %+v", i, avail)
		}
	}
	for i := 0; i < 12; i++ {
		if err := tb.Teardown("k", fmt.Sprintf("svc-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range tb.Daemons {
		if d.Nodes() != 0 {
			t.Fatalf("host %d not pristine", i)
		}
		if got, want := d.Availability().CPUMHz, int(tb.Hosts[i].Spec.Clock/1e6); got != want {
			t.Fatalf("host %d CPU not restored: %d != %d", i, got, want)
		}
	}
}

func TestBillingPropertyCapacityTimesDuration(t *testing.T) {
	// Property: for any sequence of create/resize/teardown with idle gaps,
	// billed instance-seconds equal the integral of capacity over time.
	tb := newTestbed(t)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.MachineConfig{CPUMHz: 128, MemoryMB: 32, DiskMB: 64, BandwidthMbps: 1}
	rng := sim.NewRNG(54)

	var expected, tolerance float64
	capacity := 0
	lastChange := tb.K.Now()
	// account books the elapsed window at the pre-call capacity; a
	// capacity transition during an agent call (the call consumes virtual
	// time for transfers and priming) contributes bounded uncertainty.
	account := func(newCapacity int, callStart sim.Time) {
		expected += float64(capacity) * tb.K.Now().Sub(lastChange).Seconds()
		lastChange = tb.K.Now()
		delta := newCapacity - capacity
		if delta < 0 {
			delta = -delta
		}
		tolerance += float64(delta) * tb.K.Now().Sub(callStart).Seconds()
		capacity = newCapacity
	}
	created := false
	for step := 0; step < 8; step++ {
		tb.K.RunFor(sim.Duration(1+rng.Intn(20)) * sim.Second)
		switch {
		case !created:
			n := 1 + rng.Intn(3)
			callStart := tb.K.Now()
			if _, err := tb.CreateService("genome-key", soda.ServiceSpec{
				Name: "p", ImageName: img.Name, Repository: hup.RepoIP,
				Requirement: soda.Requirement{N: n, M: m}, GuestProfile: img.SystemServices,
			}); err != nil {
				t.Fatal(err)
			}
			account(n, callStart)
			created = true
		case rng.Bool(0.5):
			n := 1 + rng.Intn(4)
			callStart := tb.K.Now()
			if _, err := tb.Resize("genome-key", "p", n); err != nil {
				t.Fatal(err)
			}
			account(n, callStart)
		default:
			callStart := tb.K.Now()
			if err := tb.Teardown("genome-key", "p"); err != nil {
				t.Fatal(err)
			}
			account(0, callStart)
			created = false
		}
	}
	tb.K.RunFor(5 * sim.Second)
	account(capacity, tb.K.Now())
	acct, _ := tb.Agent.Billing("bio-institute")
	got := acct.InstanceSeconds
	if diff := got - expected; diff > tolerance+0.1 || diff < -tolerance-0.1 {
		t.Fatalf("billed %.2f instance-seconds, expected %.2f ± %.2f", got, expected, tolerance)
	}
}

func TestImageCacheSkipsRepeatDownloads(t *testing.T) {
	tb := newTestbed(t)
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.MachineConfig{CPUMHz: 128, MemoryMB: 32, DiskMB: 64, BandwidthMbps: 1}
	first, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "a", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "b", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both land on seattle (most free CPU). The second prime must hit the
	// cache: a local read is far faster than the 15MB transfer.
	if first.Nodes[0].HostName != second.Nodes[0].HostName {
		t.Skipf("services landed on different hosts: %s vs %s",
			first.Nodes[0].HostName, second.Nodes[0].HostName)
	}
	d := tb.Daemons[0]
	if d.CacheHits() != 1 || d.CachedImages() != 1 {
		t.Fatalf("cache hits=%d images=%d", d.CacheHits(), d.CachedImages())
	}
	if second.Nodes[0].DownloadTime >= first.Nodes[0].DownloadTime/2 {
		t.Fatalf("cached fetch %.2fs not much faster than download %.2fs",
			second.Nodes[0].DownloadTime.Seconds(), first.Nodes[0].DownloadTime.Seconds())
	}
	// Booting node b must leave the cached master intact: a third
	// service still boots fine.
	if _, err := tb.CreateService("genome-key", soda.ServiceSpec{
		Name: "c", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	d.DropImageCache()
	if d.CachedImages() != 0 {
		t.Fatal("cache not dropped")
	}
}

// TestCorruptWholeImageDeliveryRetries covers the paper's whole-image
// download (no chunk store) when the repository corrupts one delivery:
// the prime retries and succeeds, and the corruption stays with the one
// delivery — the published image, which every node shares, still
// verifies, and another daemon's delivery of it verifies too.
func TestCorruptWholeImageDeliveryRetries(t *testing.T) {
	hosts := []hostos.Spec{hostos.Tacoma(), hostos.Tacoma()}
	hosts[0].Name, hosts[1].Name = "replica-00", "replica-01"
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: 76})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "key"); err != nil {
		t.Fatal(err)
	}
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind {
		if corrupted == 0 {
			corrupted++
			return image.FaultCorrupt
		}
		return image.FaultNone
	})
	create := func(name string) *soda.Service {
		t.Helper()
		svc, err := tb.CreateService("key", soda.ServiceSpec{
			Name: name, ImageName: img.Name, Repository: hup.RepoIP,
			Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
		})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	retries := func(svc *soda.Service) int {
		for _, d := range tb.Daemons {
			if d.Host().Spec.Name == svc.Nodes[0].HostName {
				return d.DownloadRetries()
			}
		}
		t.Fatalf("no daemon on %s", svc.Nodes[0].HostName)
		return 0
	}
	a := create("a")
	if corrupted != 1 || retries(a) != 1 {
		t.Fatalf("corrupted %d deliveries, %d retries; want 1 and 1", corrupted, retries(a))
	}
	if published, err := tb.Repo.Lookup(img.Name); err != nil || published != img || !img.Verify() {
		t.Fatalf("published image no longer verifies (lookup err %v)", err)
	}
	// oneNodeM fits one node per tacoma, so b primes on the other daemon.
	b := create("b")
	if b.Nodes[0].HostName == a.Nodes[0].HostName || retries(b) != 0 {
		t.Fatalf("b on %s (a on %s) with %d retries", b.Nodes[0].HostName, a.Nodes[0].HostName, retries(b))
	}
	for _, svc := range []*soda.Service{a, b} {
		if g := svc.Nodes[0].Guest; g.Image != img || !g.Image.Verify() {
			t.Fatalf("%s runs an image other than the verified published one", svc.Spec.Name)
		}
	}
}
