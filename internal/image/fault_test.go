package image

import (
	"errors"
	"testing"
)

// Checksum and download fault-injection tests: the integrity layer the
// daemon's retry loop depends on.

func TestChecksumSealVerifyCorrupt(t *testing.T) {
	im := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 1<<20, 8080).PadToMB(5).MustBuild()
	im.Seal()
	if !im.Verify() {
		t.Fatal("sealed image fails verification")
	}
	bad := im.Corrupted()
	if bad.Verify() {
		t.Fatal("corrupted image passes verification")
	}
	if !im.Verify() || bad.RootFS != im.RootFS {
		t.Fatal("Corrupted changed the original or copied its tree")
	}
	bad.Seal()
	if !bad.Verify() {
		t.Fatal("resealed image fails verification")
	}
}

func TestChecksumSensitiveToContent(t *testing.T) {
	a := NewBuilder("x").WithService("/srv/app", 1<<20, 80).MustBuild()
	b := NewBuilder("x").WithService("/srv/app", 1<<20, 80).MustBuild()
	if a.ComputeChecksum() != b.ComputeChecksum() {
		t.Fatal("identical images disagree on checksum")
	}
	mustAdd(t, b.RootFS, "/etc/extra", 1, false)
	if a.ComputeChecksum() == b.ComputeChecksum() {
		t.Fatal("checksum blind to added file")
	}
}

func TestDownloadFaultErrorIsTransient(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 1<<20, 8080).MustBuild()
	if err := repo.Publish(im); err != nil {
		t.Fatal(err)
	}
	failures := 1
	repo.SetFaultHook(func(name string) FaultKind {
		if name == "web-1.0" && failures > 0 {
			failures--
			return FaultError
		}
		return FaultNone
	})
	var gotErr error
	repo.Download("web-1.0", "128.10.9.1", func(*Image) { t.Error("faulted download succeeded") },
		func(err error) { gotErr = err })
	k.Run()
	if gotErr == nil || !errors.Is(gotErr, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", gotErr)
	}
	// The hook has drained: the next attempt succeeds.
	var got *Image
	repo.Download("web-1.0", "128.10.9.1", func(c *Image) { got = c }, func(err error) { t.Error(err) })
	k.Run()
	if got == nil {
		t.Fatal("clean retry never completed")
	}
}

func TestDownloadFaultCorruptBreaksChecksum(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 1<<20, 8080).MustBuild()
	im.Seal()
	if err := repo.Publish(im); err != nil {
		t.Fatal(err)
	}
	repo.SetFaultHook(func(string) FaultKind { return FaultCorrupt })
	var got *Image
	repo.Download("web-1.0", "128.10.9.1", func(c *Image) { got = c }, func(err error) { t.Fatal(err) })
	k.Run()
	if got == nil {
		t.Fatal("corrupt download never delivered")
	}
	if got.Verify() {
		t.Fatal("corrupted delivery passes verification")
	}
	// The published original is untouched.
	orig, err := repo.Lookup("web-1.0")
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Verify() {
		t.Fatal("fault hook corrupted the repository's copy")
	}
}

func TestDownloadFaultStallFiresNoCallback(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 1<<20, 8080).MustBuild()
	if err := repo.Publish(im); err != nil {
		t.Fatal(err)
	}
	repo.SetFaultHook(func(string) FaultKind { return FaultStall })
	called := false
	repo.Download("web-1.0", "128.10.9.1", func(*Image) { called = true }, func(error) { called = true })
	k.Run()
	if called {
		t.Fatal("stalled download fired a callback")
	}
	// Removing the hook restores normal service.
	repo.SetFaultHook(nil)
	var got *Image
	repo.Download("web-1.0", "128.10.9.1", func(c *Image) { got = c }, func(err error) { t.Error(err) })
	k.Run()
	if got == nil {
		t.Fatal("download after hook removal never completed")
	}
}
