package image

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// mustAdd is add, failing the test on error.
func mustAdd(t *testing.T, tr *Tree, p string, size int64, executable bool) {
	t.Helper()
	if err := tr.add(p, size, executable); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAddLookupRemove(t *testing.T) {
	tr := newTree()
	mustAdd(t, tr, "/usr/sbin/httpd", 1024, true)
	if err := tr.add("relative/path", 1, false); err == nil {
		t.Fatal("relative path accepted")
	}
	if err := tr.add("/", 1, false); err == nil {
		t.Fatal("root path accepted")
	}
	if err := tr.add("/x", -1, false); err == nil {
		t.Fatal("negative size accepted")
	}
	f, ok := tr.Lookup("/usr/sbin/../sbin/httpd") // path cleaning
	if !ok || f.SizeBytes != 1024 || !f.Executable {
		t.Fatalf("lookup = %+v %v", f, ok)
	}
	// Lookup hands out a value: changing it leaves the tree alone.
	f.SizeBytes = 1
	if g, _ := tr.Lookup("/usr/sbin/httpd"); g.SizeBytes != 1024 {
		t.Fatal("Lookup exposed the tree's own file")
	}
	if _, ok := tr.Lookup("/usr/sbin/sshd"); ok || tr.Contains("/usr/sbin/sshd") {
		t.Fatal("absent file found")
	}
}

func TestTreeDuplicateAddReplaces(t *testing.T) {
	tr := newTree()
	mustAdd(t, tr, "/a", 10, false)
	mustAdd(t, tr, "/a", 20, false)
	if tr.Len() != 1 || tr.SizeBytes() != 20 {
		t.Fatalf("len=%d size=%d", tr.Len(), tr.SizeBytes())
	}
}

func TestTreeSizeAndListOrdering(t *testing.T) {
	tr := newTree()
	mustAdd(t, tr, "/b", 2, false)
	mustAdd(t, tr, "/a", 1, false)
	mustAdd(t, tr, "/c", 3, false)
	if tr.SizeBytes() != 6 {
		t.Fatalf("size = %d", tr.SizeBytes())
	}
	list := tr.List()
	if list[0].Path != "/a" || list[2].Path != "/c" {
		t.Fatal("list not sorted")
	}
	if tr.SizeMB() != 1 { // rounds up
		t.Fatalf("sizeMB = %d", tr.SizeMB())
	}
}

func TestTreeListDir(t *testing.T) {
	tr := newTree()
	mustAdd(t, tr, "/var/www/a", 1, false)
	mustAdd(t, tr, "/var/www/b", 1, false)
	mustAdd(t, tr, "/var/log/x", 1, false)
	got := tr.ListDir("/var/www")
	if len(got) != 2 || got[0].Path != "/var/www/a" {
		t.Fatalf("listdir = %v", got)
	}
}

func TestBuilderProducesValidImage(t *testing.T) {
	im, err := NewBuilder("web-1.0").
		WithService("/usr/sbin/httpd", 2<<20, 8080).
		WithWorkers(4).
		WithSystemServices("network", "syslog").
		WithDataset(8, 64<<10).
		PadToMB(29).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if im.SizeMB() != 29 {
		t.Fatalf("padded size = %dMB", im.SizeMB())
	}
	if !im.RootFS.Contains("/etc/init.d/network") {
		t.Fatal("service init script missing")
	}
	if len(im.RootFS.ListDir("/var/www/data")) != 8 {
		t.Fatal("dataset missing")
	}
	if im.WorkerProcesses != 4 || im.Port != 8080 {
		t.Fatalf("image meta = %+v", im)
	}
}

func TestImageValidation(t *testing.T) {
	if _, err := NewBuilder("x").Build(); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := NewBuilder("x").WithService("/srv/app", 1, 0).Build(); err == nil {
		t.Fatal("bad port accepted")
	}
	if _, err := NewBuilder("x").WithService("/srv/app", 1, 80).WithWorkers(0).Build(); err == nil {
		t.Fatal("zero workers accepted")
	}
	tree := newTree()
	mustAdd(t, tree, "/srv/other", 1, true)
	im := &Image{Name: "x", RootFS: tree, ServiceCommand: "/srv/app", Port: 80, WorkerProcesses: 1}
	if err := im.Validate(); err == nil {
		t.Fatal("missing service command accepted")
	}
}

func TestPadToMBIdempotentWhenLarge(t *testing.T) {
	im := NewBuilder("x").WithService("/srv/app", 10<<20, 80).PadToMB(5).MustBuild()
	if im.SizeMB() != 10 {
		t.Fatalf("padding shrank image to %dMB", im.SizeMB())
	}
}

func newRepoLAN(t *testing.T) (*sim.Kernel, *simnet.Network, *Repository) {
	t.Helper()
	k := sim.NewKernel()
	n := simnet.New(k, 100*sim.Microsecond)
	asp := n.MustAttach("asp", 100)
	hup := n.MustAttach("hup", 100)
	if err := asp.AddIP("128.10.8.1"); err != nil {
		t.Fatal(err)
	}
	if err := hup.AddIP("128.10.9.1"); err != nil {
		t.Fatal(err)
	}
	repo, err := NewRepository(n, "128.10.8.1")
	if err != nil {
		t.Fatal(err)
	}
	return k, n, repo
}

func TestRepositoryPublishLookup(t *testing.T) {
	_, _, repo := newRepoLAN(t)
	im := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 1<<20, 8080).MustBuild()
	if err := repo.Publish(im); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Lookup("web-1.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Lookup("nope"); err == nil {
		t.Fatal("missing image found")
	}
	if got := repo.Names(); len(got) != 1 || got[0] != "web-1.0" {
		t.Fatalf("names = %v", got)
	}
}

func TestRepositoryRejectsInvalidImage(t *testing.T) {
	_, _, repo := newRepoLAN(t)
	if err := repo.Publish(&Image{Name: "bad"}); err == nil {
		t.Fatal("invalid image published")
	}
}

func TestRepositoryRequiresBridgedAddress(t *testing.T) {
	k := sim.NewKernel()
	n := simnet.New(k, 0)
	if _, err := NewRepository(n, "9.9.9.9"); err == nil {
		t.Fatal("unbridged repository accepted")
	}
}

func TestDownloadDeliversCloneAfterTransferTime(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 1<<20, 8080).PadToMB(10).MustBuild()
	repo.Publish(im)
	var got *Image
	var done sim.Time
	repo.Download("web-1.0", "128.10.9.1", func(c *Image) { got, done = c, k.Now() }, func(err error) { t.Error(err) })
	k.Run()
	if got == nil {
		t.Fatal("download never completed")
	}
	// Every delivery is the published image itself.
	if got != im {
		t.Fatal("download delivered something other than the published image")
	}
	// 10 MB + framing at 100 Mbps ≈ 0.85 s.
	want := float64(WireBytes(im)) / simnet.Mbps(100)
	if math.Abs(done.Seconds()-want) > 0.05*want {
		t.Fatalf("download took %vs, want ≈%vs", done.Seconds(), want)
	}
}

func TestDownloadUnknownImageErrors(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	var gotErr error
	repo.Download("missing", "128.10.9.1", func(*Image) { t.Error("unexpected success") }, func(err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("no error for missing image")
	}
}

func TestDownloadTimeLinearInImageSize(t *testing.T) {
	// The §4.3 in-text result: download time grows linearly with size.
	times := make([]float64, 0, 3)
	for _, mb := range []int{20, 40, 80} {
		k, _, repo := newRepoLAN(t)
		im := NewBuilder("img").WithService("/srv/app", 1<<20, 80).PadToMB(mb).MustBuild()
		repo.Publish(im)
		var done sim.Time
		repo.Download("img", "128.10.9.1", func(*Image) { done = k.Now() }, func(err error) { t.Fatal(err) })
		k.Run()
		times = append(times, done.Seconds())
	}
	for i := 1; i < len(times); i++ {
		if r := times[i] / times[i-1]; math.Abs(r-2.0) > 0.05 {
			t.Fatalf("size doubling changed time by %.3f, want ≈2", r)
		}
	}
}

func TestEstimateDownloadTimeMatchesSimulation(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := NewBuilder("img").WithService("/srv/app", 1<<20, 80).PadToMB(50).MustBuild()
	repo.Publish(im)
	var done sim.Time
	repo.Download("img", "128.10.9.1", func(*Image) { done = k.Now() }, nil)
	k.Run()
	est := EstimateDownloadTime(im, 100)
	diff := math.Abs(done.Seconds() - est.Seconds())
	if diff > 0.05*est.Seconds() {
		t.Fatalf("estimate %v vs simulated %v", est, done.Seconds())
	}
}

func TestWireBytesExceedPayloadSlightly(t *testing.T) {
	if err := quick.Check(func(mb uint8) bool {
		size := int(mb%100) + 1
		im := NewBuilder("img").WithService("/srv/app", 1<<20, 80).PadToMB(size).MustBuild()
		w := WireBytes(im)
		p := im.SizeBytes()
		return w > p && float64(w) < float64(p)*1.05
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
