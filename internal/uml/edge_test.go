package uml

import (
	"reflect"
	"testing"

	"repro/internal/hostos"
	"repro/internal/image"
	"repro/internal/sim"
)

// Edge-case and failure-injection tests for the guest-OS substrate.

func TestBootRejectsMissingHostOrImage(t *testing.T) {
	var gotErr error
	Boot(BootRequest{}, func(*BootReport) { t.Error("boot succeeded with nil host") },
		func(err error) { gotErr = err })
	if gotErr == nil {
		t.Fatal("no error for empty request")
	}
}

func TestBootSurfacesTailoringError(t *testing.T) {
	k := sim.NewKernel()
	h := hostos.MustNew(k, hostos.Seattle(), nil)
	img := testImage([]string{"httpd"}, 10)
	var gotErr error
	// Profile lacks what the image requires.
	Boot(BootRequest{Host: h, UID: 1, IP: "1.1.1.1", NodeName: "n", Image: img, Profile: []string{"sshd"}},
		func(*BootReport) { t.Error("boot succeeded with impossible tailoring") },
		func(err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("tailoring error swallowed")
	}
	// Nothing leaked: no processes under the uid.
	if len(h.ProcessesByUID(1)) != 0 {
		t.Fatal("boot leaked processes on failure")
	}
}

func TestBootFallsBackToDiskWhenRAMRaces(t *testing.T) {
	// Consume almost all memory before boot: the mount must fall back to
	// the disk path rather than fail.
	k := sim.NewKernel()
	h := hostos.MustNew(k, hostos.Tacoma(), nil)
	if err := h.UseMemory(h.MemoryFreeMB() - 100); err != nil {
		t.Fatal(err)
	}
	var report *BootReport
	Boot(BootRequest{Host: h, UID: 1, IP: "1.1.1.1", NodeName: "n",
		Image: testImage(ProfileTomsrtbt(), 15), Profile: ProfileTomsrtbt()},
		func(r *BootReport) { report = r }, func(err error) { t.Fatal(err) })
	k.Run()
	if report == nil {
		t.Fatal("boot never completed")
	}
	if report.RAMDisk {
		t.Fatal("RAM disk claimed with no free memory")
	}
}

func TestGuestStateStrings(t *testing.T) {
	if Running.String() != "running" || Crashed.String() != "crashed" || Stopped.String() != "stopped" {
		t.Fatal("state names wrong")
	}
	if GuestState(9).String() == "" {
		t.Fatal("unknown state renders empty")
	}
}

func TestCatalogNamesSortedAndLen(t *testing.T) {
	c := StandardCatalog
	names := c.Names()
	if len(names) != c.Len() || len(names) < 25 {
		t.Fatalf("catalog size = %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("names not sorted")
		}
	}
	if c.Lookup("sendmail") == nil || c.Lookup("no-such") != nil {
		t.Fatal("lookup wrong")
	}
}

func TestTailorIsIdempotentOnRetainedSet(t *testing.T) {
	c := StandardCatalog
	img := testImage(ProfileFullServer(), 40)
	first, err := Tailor(c, img.RootFS, ProfileFullServer(), []string{"httpd"})
	if err != nil {
		t.Fatal(err)
	}
	// The tree is only read, so tailoring it again gives the same result.
	second, err := Tailor(c, img.RootFS, ProfileFullServer(), []string{"httpd"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second tailoring %+v differs from the first %+v", second, first)
	}
}

func TestBootTimeScalesWithClock(t *testing.T) {
	// Same profile, 2x clock → CPU-bound boot halves (RAM path).
	boot := func(spec hostos.Spec) float64 {
		k := sim.NewKernel()
		h := hostos.MustNew(k, spec, nil)
		var done sim.Time
		Boot(BootRequest{Host: h, UID: 1, IP: "1.1.1.1", NodeName: "n",
			Image: testImage(ProfileTomsrtbt(), 15), Profile: ProfileTomsrtbt()},
			func(*BootReport) { done = k.Now() }, func(err error) { t.Fatal(err) })
		k.Run()
		return done.Seconds()
	}
	fast := hostos.Seattle()
	slow := hostos.Seattle()
	slow.Name = "half"
	slow.Clock /= 2
	ratio := boot(slow) / boot(fast)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("half-clock boot ratio = %.2f, want ≈2", ratio)
	}
}

func TestImagePadKeepsServiceScripts(t *testing.T) {
	img := image.NewBuilder("x").
		WithService("/usr/sbin/httpd", 1<<20, 8080).
		WithSystemServices(ProfileBase()...).
		PadToMB(100).
		MustBuild()
	for _, svc := range ProfileBase() {
		if !img.RootFS.Contains("/etc/init.d/" + svc) {
			t.Fatalf("padding displaced init script %s", svc)
		}
	}
}
