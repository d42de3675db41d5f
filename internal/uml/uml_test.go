package uml

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hostos"
	"repro/internal/image"
	"repro/internal/sim"
)

func testImage(profile []string, sizeMB int) *image.Image {
	b := image.NewBuilder("svc").
		WithService("/usr/sbin/httpd", 2<<20, 8080).
		WithWorkers(2).
		WithSystemServices(profile...)
	return b.PadToMB(sizeMB).MustBuild()
}

func bootOn(t *testing.T, spec hostos.Spec, profile []string, sizeMB int, memMB int) (*sim.Kernel, *hostos.Host, *BootReport, sim.Duration) {
	t.Helper()
	k := sim.NewKernel()
	h := hostos.MustNew(k, spec, nil)
	if memMB > 0 {
		if _, err := h.Reserve(1000, hostos.SliceRequest{CPUMHz: 512, MemoryMB: memMB, DiskMB: 2048, BandwidthMbps: 10}); err != nil {
			t.Fatal(err)
		}
	}
	var report *BootReport
	start := k.Now()
	Boot(BootRequest{
		Host:     h,
		UID:      1000,
		IP:       "128.10.9.125",
		NodeName: "node-1",
		Image:    testImage(profile, sizeMB),
		Profile:  profile,
	}, func(r *BootReport) { report = r }, func(err error) { t.Fatal(err) })
	end := k.Run()
	if report == nil {
		t.Fatal("boot never completed")
	}
	return k, h, report, end.Sub(start)
}

func TestCatalogClosureOrdersDependenciesFirst(t *testing.T) {
	c := StandardCatalog
	order, err := c.Closure([]string{"sshd"})
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, s := range order {
		pos[s.Name] = i
	}
	for _, want := range []string{"kernel-init", "network", "random", "sshd"} {
		if _, ok := pos[want]; !ok {
			t.Fatalf("closure of sshd missing %s: %v", want, order)
		}
	}
	if !(pos["kernel-init"] < pos["network"] && pos["network"] < pos["sshd"] && pos["random"] < pos["sshd"]) {
		t.Fatalf("boot order wrong: %v", pos)
	}
}

func TestCatalogClosureDeduplicates(t *testing.T) {
	c := StandardCatalog
	order, err := c.Closure([]string{"sshd", "httpd", "sshd"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range order {
		if seen[s.Name] {
			t.Fatalf("duplicate %s in closure", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestCatalogClosureUnknownServiceFails(t *testing.T) {
	if _, err := StandardCatalog.Closure([]string{"no-such-daemon"}); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestCatalogClosureDetectsCycles(t *testing.T) {
	c := newCatalog()
	c.register(SystemService{Name: "a", Deps: []string{"b"}})
	c.register(SystemService{Name: "b", Deps: []string{"a"}})
	if _, err := c.Closure([]string{"a"}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

// The errors name the dependency path that led to the bad service: the
// requested service first, and no sibling visited before it.
func TestCatalogClosureErrorText(t *testing.T) {
	c := newCatalog()
	for _, s := range []SystemService{
		{Name: "root", Deps: []string{"alpha", "zeta"}},
		{Name: "alpha", Deps: []string{"beta"}},
		{Name: "beta"},
		{Name: "zeta", Deps: []string{"mid"}},
		{Name: "mid", Deps: []string{"zeta"}},
		{Name: "orphan", Deps: []string{"alpha", "parent"}},
		{Name: "parent", Deps: []string{"ghost"}},
	} {
		if err := c.register(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		requested []string
		want      string
	}{
		{[]string{"root"}, "uml: dependency cycle: [root zeta mid] -> zeta"},
		{[]string{"orphan"}, `uml: unknown system service "ghost" (requested via [orphan parent])`},
		{[]string{"beta", "nope"}, `uml: unknown system service "nope" (requested via [])`},
	} {
		if _, err := c.Closure(tc.requested); err == nil || err.Error() != tc.want {
			t.Errorf("Closure(%v) error = %v, want %q", tc.requested, err, tc.want)
		}
	}
}

func TestCatalogRegisterValidation(t *testing.T) {
	c := newCatalog()
	if err := c.register(SystemService{}); err == nil {
		t.Fatal("unnamed service accepted")
	}
	if err := c.register(SystemService{Name: "x", StartCycles: -1}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestStandardCatalogProfileCostsOrdering(t *testing.T) {
	// The calibrated totals must preserve the paper's ordering:
	// S_II < S_I, S_III small, S_IV enormous.
	c := StandardCatalog
	total := func(profile []string) cycles.Cycles {
		list, err := c.Closure(profile)
		if err != nil {
			t.Fatal(err)
		}
		return TotalStartCycles(list)
	}
	tom, base, lfs, full := total(ProfileTomsrtbt()), total(ProfileBase()), total(ProfileLFS()), total(ProfileFullServer())
	if !(tom < base && lfs < base*2 && base < full/5) {
		t.Fatalf("profile costs out of shape: tom=%d base=%d lfs=%d full=%d", tom, base, lfs, full)
	}
	// Calibration anchors (±5%): see EXPERIMENTS.md.
	if math.Abs(float64(full)-54.6e9) > 0.05*54.6e9 {
		t.Fatalf("full-server cost %d drifted from calibration 54.6e9", full)
	}
}

func TestTailorPrunesUnneededServices(t *testing.T) {
	c := StandardCatalog
	profile := ProfileFullServer()
	img := testImage(profile, 40)
	before := img.RootFS.List()
	res, err := Tailor(c, img.RootFS, profile, []string{"httpd", "sshd"})
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{}
	for _, s := range res.Retained {
		keep[s.Name] = true
	}
	if !keep["httpd"] || !keep["sshd"] || !keep["network"] || !keep["kernel-init"] {
		t.Fatalf("closure incomplete: %v", res.Retained)
	}
	if keep["sendmail"] || keep["mysql"] {
		t.Fatal("unneeded heavyweights retained")
	}
	if !slices.Contains(res.Dropped, "sendmail") || slices.Contains(res.Dropped, "httpd") {
		t.Fatalf("dropped = %v, want sendmail in and httpd out", res.Dropped)
	}
	if res.RootBytes >= img.SizeBytes() {
		t.Fatalf("tailored root %d B, packaged tree %d B: tailoring removed nothing", res.RootBytes, img.SizeBytes())
	}
	if res.ReclaimedBytes <= 0 || res.CPUCost <= 0 {
		t.Fatalf("result accounting empty: %+v", res)
	}
	// Tailoring is a read: the shared tree is unchanged.
	if !slices.Equal(img.RootFS.List(), before) || !img.Verify() {
		t.Fatal("tailoring changed the image's tree")
	}
}

func TestTailorRejectsRequirementOutsideProfile(t *testing.T) {
	c := StandardCatalog
	img := testImage([]string{"httpd"}, 10)
	if _, err := Tailor(c, img.RootFS, []string{"httpd"}, []string{"mysql"}); err == nil {
		t.Fatal("requirement outside profile accepted")
	}
}

func TestTailorNilRootfs(t *testing.T) {
	if _, err := Tailor(StandardCatalog, nil, nil, nil); err == nil {
		t.Fatal("nil rootfs accepted")
	}
}

func TestBootSmallProfileIsFast(t *testing.T) {
	_, _, report, dur := bootOn(t, hostos.Seattle(), ProfileTomsrtbt(), 15, 256)
	if !report.RAMDisk {
		t.Fatal("15MB image should mount in RAM on seattle")
	}
	if report.PressureFactor != 1 {
		t.Fatalf("pressure on seattle for a 15MB image: %v", report.PressureFactor)
	}
	if dur.Seconds() < 1.5 || dur.Seconds() > 2.6 {
		t.Fatalf("S_II-style boot took %.2fs, want ≈2s (paper Table 2)", dur.Seconds())
	}
	if report.Guest == nil || !report.Guest.Alive() {
		t.Fatal("guest not running after boot")
	}
}

func TestBootLargeImageFallsBackToDiskOnTacoma(t *testing.T) {
	_, _, reportSea, durSea := bootOn(t, hostos.Seattle(), ProfileLFS(), 400, 256)
	_, _, reportTac, durTac := bootOn(t, hostos.Tacoma(), ProfileLFS(), 400, 256)
	if !reportSea.RAMDisk {
		t.Fatal("seattle should RAM-mount the 400MB LFS image")
	}
	if reportTac.RAMDisk {
		t.Fatal("tacoma (768MB) must disk-mount the 400MB LFS image")
	}
	// Paper Table 2: 4.0s vs 16.0s — a ≥3× gap driven by the mount path.
	if r := durTac.Seconds() / durSea.Seconds(); r < 3 {
		t.Fatalf("tacoma/seattle boot ratio = %.2f, want ≥3 (paper: 4)", r)
	}
}

func TestBootFullServerShowsMemoryPressureOnTacoma(t *testing.T) {
	_, _, reportSea, durSea := bootOn(t, hostos.Seattle(), ProfileFullServer(), 253, 256)
	_, _, reportTac, durTac := bootOn(t, hostos.Tacoma(), ProfileFullServer(), 253, 256)
	if reportSea.PressureFactor != 1 {
		t.Fatalf("seattle under pressure: %v", reportSea.PressureFactor)
	}
	if reportTac.PressureFactor <= 1.1 {
		t.Fatalf("tacoma pressure factor = %v, want >1.1", reportTac.PressureFactor)
	}
	// Paper: 22s vs 42s — tacoma ≈1.9× slower, more than the 1.44 clock
	// ratio alone.
	r := durTac.Seconds() / durSea.Seconds()
	if r < 1.6 || r > 2.4 {
		t.Fatalf("tacoma/seattle = %.2f, want ≈1.9", r)
	}
	if durSea.Seconds() < 18 || durSea.Seconds() > 26 {
		t.Fatalf("seattle full boot = %.1fs, want ≈22s", durSea.Seconds())
	}
}

func TestBootStartsServicesInClosureOnly(t *testing.T) {
	_, _, report, _ := bootOn(t, hostos.Seattle(), ProfileBase(), 29, 256)
	closure, _ := StandardCatalog.Closure(ProfileBase())
	if report.ServicesStarted != len(closure) {
		t.Fatalf("started %d services, want %d", report.ServicesStarted, len(closure))
	}
}

func TestBootContendedHostIsSlower(t *testing.T) {
	// Boot work runs on the modelled CPU, so a spinning co-tenant slows it.
	k := sim.NewKernel()
	h := hostos.MustNew(k, hostos.Seattle(), nil)
	h.Spawn("hog", 99).Spin()
	var done sim.Time
	Boot(BootRequest{Host: h, UID: 1000, IP: "1.1.1.1", NodeName: "n", Image: testImage(ProfileTomsrtbt(), 15), Profile: ProfileTomsrtbt()},
		func(r *BootReport) { done = k.Now() }, func(err error) { t.Fatal(err) })
	k.RunUntil(sim.Time(60 * sim.Second))
	if done == 0 {
		t.Fatal("boot never completed")
	}
	if done.Seconds() < 3.5 { // ≈2× the uncontended 2s
		t.Fatalf("contended boot took %.2fs, expected ≈2× slowdown", done.Seconds())
	}
}

func TestGuestLifecycleAndPS(t *testing.T) {
	_, h, report, _ := bootOn(t, hostos.Seattle(), ProfileTomsrtbt(), 15, 256)
	g := report.Guest
	if g.State() != Running || g.State().String() != "running" {
		t.Fatalf("state = %v", g.State())
	}
	ps := g.PS()
	joined := strings.Join(ps, "\n")
	if !strings.Contains(joined, "init") || !strings.Contains(joined, "[kswapd]") || !strings.Contains(joined, "httpd") {
		t.Fatalf("ps listing missing entries:\n%s", joined)
	}
	if g.Workers() != 2 {
		t.Fatalf("workers = %d", g.Workers())
	}
	var crashReason string
	g.OnCrash(func(r string) { crashReason = r })
	g.Crash("ghttpd buffer overflow")
	g.Crash("double") // idempotent
	if g.Alive() || crashReason != "ghttpd buffer overflow" {
		t.Fatal("crash semantics wrong")
	}
	if len(h.ProcessesByUID(1000)) != 0 {
		t.Fatal("guest processes survived crash")
	}
	if got := h.MemoryFreeMB(); got != h.Spec.MemoryMB-256 {
		t.Fatalf("RAM disk not freed: free=%d", got)
	}
}

func TestGuestCrashDoesNotAffectSibling(t *testing.T) {
	// Two guests on one host: crashing one leaves the other serving.
	k := sim.NewKernel()
	h := hostos.MustNew(k, hostos.Seattle(), nil)
	guests := make([]*Guest, 0, 2)
	for i, uid := range []int{1000, 2000} {
		Boot(BootRequest{Host: h, UID: uid, IP: "1.1.1.1", NodeName: []string{"web", "honeypot"}[i],
			Image: testImage(ProfileTomsrtbt(), 15), Profile: ProfileTomsrtbt()},
			func(r *BootReport) { guests = append(guests, r.Guest) }, func(err error) { t.Fatal(err) })
	}
	k.Run()
	if len(guests) != 2 {
		t.Fatalf("booted %d guests", len(guests))
	}
	guests[1].Crash("attack")
	if !guests[0].Alive() {
		t.Fatal("sibling guest died — isolation violated")
	}
	done := false
	if ok := guests[0].ExecCPU(1e6, func() { done = true }); !ok {
		t.Fatal("surviving guest rejected work")
	}
	k.Run()
	if !done {
		t.Fatal("surviving guest did not finish work")
	}
}

func TestGuestWorkSchedulingAfterCrashRejected(t *testing.T) {
	_, _, report, _ := bootOn(t, hostos.Seattle(), ProfileTomsrtbt(), 15, 256)
	g := report.Guest
	g.Crash("x")
	if g.ExecCPU(1, nil) || g.Syscall(cycles.Getpid, nil) || g.ReadDisk(1, nil) {
		t.Fatal("dead guest accepted work")
	}
}

func TestGuestKillWorkerDegradesButSurvives(t *testing.T) {
	_, _, report, _ := bootOn(t, hostos.Seattle(), ProfileTomsrtbt(), 15, 256)
	g := report.Guest
	if !g.KillWorker() {
		t.Fatal("kill worker failed")
	}
	if g.Workers() != 1 || !g.Alive() {
		t.Fatalf("workers = %d alive = %v", g.Workers(), g.Alive())
	}
	if !g.KillWorker() {
		t.Fatal("second kill failed")
	}
	if g.ExecCPU(1, nil) {
		t.Fatal("guest with no workers accepted request work")
	}
	if !g.Alive() {
		t.Fatal("guest OS should still be up (kernel threads remain)")
	}
}

func TestGuestSyscallPaysInterceptionTax(t *testing.T) {
	k := sim.NewKernel()
	h := hostos.MustNew(k, hostos.Seattle(), nil)
	var report *BootReport
	Boot(BootRequest{Host: h, UID: 1000, IP: "1.1.1.1", NodeName: "n", Image: testImage(ProfileTomsrtbt(), 15), Profile: ProfileTomsrtbt()},
		func(r *BootReport) { report = r }, func(err error) { t.Fatal(err) })
	k.Run()
	g := report.Guest
	start := k.Now()
	var guestDur sim.Duration
	g.Syscall(cycles.Dup2, func() { guestDur = k.Now().Sub(start) })
	k.Run()
	want := cycles.UMLCost(cycles.Dup2).Duration(h.Spec.Clock)
	if math.Abs(float64(guestDur-want)) > float64(want)/100 {
		t.Fatalf("guest dup2 took %v, want %v", guestDur, want)
	}
}

// TestBootSizesRootFromTailoredTree boots images packaged with the
// full-server guest profile whose application needs only httpd, so
// tailoring drops every other service's init script and the 12 MB of
// mysql libraries: the RAM disk, or the disk read when the root does not
// fit in memory, follows the tailored root, not the packaged tree.
func TestBootSizesRootFromTailoredTree(t *testing.T) {
	for _, tc := range []struct {
		host    hostos.Spec
		imageMB int
		ramMB   int // 0: disk-mounted
		want    sim.Time
	}{
		{hostos.Seattle(), 40, 28, 1829230772},
		{hostos.Tacoma(), 700, 0, 22341161269},
	} {
		b := image.NewBuilder("svc").
			WithService("/usr/sbin/httpd", 2<<20, 8080).
			WithWorkers(2).
			WithSystemServices("httpd").
			WithFile("/usr/lib/mysql/libmysqlclient.so", 12<<20)
		for _, s := range ProfileFullServer() {
			if s != "httpd" {
				b.WithFile("/etc/init.d/"+s, 4096)
			}
		}
		k := sim.NewKernel()
		h := hostos.MustNew(k, tc.host, nil)
		var report *BootReport
		Boot(BootRequest{Host: h, UID: 1000, IP: "128.10.9.125", NodeName: "node-1",
			Image: b.PadToMB(tc.imageMB).MustBuild(), Profile: ProfileFullServer()},
			func(r *BootReport) { report = r }, func(err error) { t.Fatal(err) })
		end := k.Run()
		if report == nil {
			t.Fatal("boot never completed")
		}
		if report.RAMDisk != (tc.ramMB > 0) || report.Guest.ramMB != tc.ramMB {
			t.Errorf("%s: RAM disk %v of %d MB, want %d MB", tc.host.Name, report.RAMDisk, report.Guest.ramMB, tc.ramMB)
		}
		if end != tc.want {
			t.Errorf("%s: boot took %d ns, want %d", tc.host.Name, end, tc.want)
		}
	}
}
