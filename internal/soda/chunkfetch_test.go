package soda_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/soda"
)

// Failure paths of the chunked image fetch. Each test primes through
// Daemon.Prime directly, so it sees the daemon's own error rather than
// the Master's summary, and checks that the failed prime left no node,
// reservation, pool address or image disk behind.

// smallM fits several nodes on one tacoma host.
func smallM() soda.MachineConfig {
	return soda.MachineConfig{CPUMHz: 64, MemoryMB: 128, DiskMB: 64, BandwidthMbps: 1}
}

// oneChunkImage is a one-file image smaller than a chunk, so its
// manifest holds exactly one chunk and per-chunk attempt counts are
// exact.
func oneChunkImage(name string) *image.Image {
	return image.NewBuilder(name).WithService("/usr/sbin/httpd", 1<<20, 8080).MustBuild()
}

// primeResult is the outcome of one Daemon.Prime; reports counts its
// callbacks, which must be exactly one.
type primeResult struct {
	info    soda.NodeInfo
	err     error
	done    bool
	at      sim.Time
	reports int
}

// startPrime issues one prime of img on d and returns without waiting.
func startPrime(tb *hup.Testbed, d *soda.Daemon, node string, img *image.Image) *primeResult {
	r := &primeResult{}
	d.Prime(soda.PrimeRequest{
		ServiceName: "svc", NodeName: node, ImageName: img.Name, Repository: hup.RepoIP,
		M: smallM(), Instances: 1, GuestProfile: img.SystemServices, Port: 8080,
	}, func(info soda.NodeInfo) {
		r.info, r.done, r.at = info, true, tb.K.Now()
		r.reports++
	}, func(err error) {
		r.err, r.done, r.at = err, true, tb.K.Now()
		r.reports++
	})
	return r
}

// settlePrimes runs the kernel until every prime has reported, failing
// the test after ten virtual minutes.
func settlePrimes(t *testing.T, tb *hup.Testbed, rs ...*primeResult) {
	t.Helper()
	limit := tb.K.Now().Add(10 * 60 * sim.Second)
	for {
		pending := 0
		for _, r := range rs {
			if !r.done {
				pending++
			}
		}
		if pending == 0 {
			return
		}
		if tb.K.Pending() == 0 || tb.K.Now().Sub(limit) >= 0 {
			t.Fatalf("%d prime(s) never reported", pending)
		}
		tb.K.RunFor(sim.Second)
	}
}

// diskUsedMB probes how much image disk the host has pinned: the
// largest UseDisk that still fits, given back at once.
func diskUsedMB(h *hostos.Host) int {
	fits := func(n int) bool {
		if h.UseDisk(n) != nil {
			return false
		}
		h.FreeDisk(n)
		return true
	}
	free := sort.Search(h.Spec.DiskMB+1, func(n int) bool { return !fits(n) }) - 1
	return h.Spec.DiskMB - free
}

// assertNoLeak fails unless daemon i holds no node and no reservation,
// has freeIPs pool addresses free, and pins diskMB of image disk.
func assertNoLeak(t *testing.T, tb *hup.Testbed, i, freeIPs, diskMB int) {
	t.Helper()
	d, h := tb.Daemons[i], tb.Hosts[i]
	if d.Nodes() != 0 {
		t.Fatalf("daemon %d leaked %d node(s)", i, d.Nodes())
	}
	avail := d.Availability()
	if avail.CPUMHz != int(h.Spec.Clock/1e6) || avail.MemoryMB != h.Spec.MemoryMB || avail.DiskMB != h.Spec.DiskMB {
		t.Fatalf("daemon %d leaked a reservation: %+v", i, avail)
	}
	if got := d.FreeIPs(); got != freeIPs {
		t.Fatalf("daemon %d: %d free pool addresses, want %d", i, got, freeIPs)
	}
	if got := diskUsedMB(h); got != diskMB {
		t.Fatalf("daemon %d: %d MB image disk pinned, want %d", i, got, diskMB)
	}
}

// failOnChunks returns a fault hook that leaves the first repository
// call (the manifest fetch) alone and injects kind on every later one,
// counting calls in *calls.
func failOnChunks(kind image.FaultKind, calls *int) func(string) image.FaultKind {
	return func(string) image.FaultKind {
		*calls++
		if *calls == 1 {
			return image.FaultNone
		}
		return kind
	}
}

// A second prime of an image already being fetched on the same daemon
// joins the running fetch: the chunks come from the origin once, and
// both nodes boot the one published image at the same instant.
func TestConcurrentPrimesJoinOneChunkFetch(t *testing.T) {
	tb := replicaTestbed(t, 1, 81)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	d := tb.Daemons[0]
	a := startPrime(tb, d, "a", img)
	b := startPrime(tb, d, "b", img)
	settlePrimes(t, tb, a, b)
	if a.err != nil || b.err != nil {
		t.Fatalf("primes failed: %v, %v", a.err, b.err)
	}
	if d.ChunksOrigin() != len(man.Chunks) || d.ChunksHit() != 0 || d.CacheHits() != 0 {
		t.Fatalf("origin=%d hit=%d cache hits=%d, want one fetch of %d chunks",
			d.ChunksOrigin(), d.ChunksHit(), d.CacheHits(), len(man.Chunks))
	}
	if a.info.DownloadTime != b.info.DownloadTime {
		t.Fatalf("download times %v and %v; the joined prime must finish with the fetch", a.info.DownloadTime, b.info.DownloadTime)
	}
	if a.info.Guest.Image != img || b.info.Guest.Image != img || d.CachedImages() != 1 {
		t.Fatalf("guests run %p and %p, want the published %p; %d pinned", a.info.Guest.Image, b.info.Guest.Image, img, d.CachedImages())
	}
}

// A chunk corrupted on every delivery fails the prime after
// chunkMaxAttempts (4) deliveries, each counted as a refetch.
func TestChunkCorruptOnEveryAttemptFailsPrime(t *testing.T) {
	tb := replicaTestbed(t, 1, 82)
	img := oneChunkImage("one")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	freeIPs := d.FreeIPs()
	calls := 0
	tb.Repo.SetFaultHook(failOnChunks(image.FaultCorrupt, &calls))
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "corrupt after 4 attempts") {
		t.Fatalf("prime error = %v, want a transient corruption after 4 attempts", r.err)
	}
	if calls != 1+4 || d.ChunkRefetches() != 4 || d.ChunksOrigin() != 0 || d.DownloadRetries() != 0 {
		t.Fatalf("repository calls=%d refetches=%d origin=%d retries=%d, want 5, 4, 0, 0",
			calls, d.ChunkRefetches(), d.ChunksOrigin(), d.DownloadRetries())
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)
}

// Once a fetch fails, the attempts still in flight are dropped as they
// report: the prime is answered once, their deliveries count no more
// refetches, and attempts still queued for a slot never reach the
// repository. Every chunk serve is corrupted, reset or stalled.
func TestFailedFetchDropsAttemptsInFlight(t *testing.T) {
	for _, tc := range []struct {
		kind image.FaultKind
		want string
	}{
		{image.FaultCorrupt, "corrupt after 4 attempts"},
		{image.FaultError, "failed 4 attempts"},
		{image.FaultStall, "failed 4 attempts (timeout)"},
	} {
		tb := replicaTestbed(t, 1, 90)
		img := hup.HoneypotImage("img")
		if err := tb.Publish(img); err != nil {
			t.Fatal(err)
		}
		d := tb.Daemons[0]
		freeIPs := d.FreeIPs()
		calls := 0
		tb.Repo.SetFaultHook(failOnChunks(tc.kind, &calls))
		r := startPrime(tb, d, "a", img)
		settlePrimes(t, tb, r)
		if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), tc.want) {
			t.Fatalf("prime error = %v, want a transient %q", r.err, tc.want)
		}
		refetches, served := d.ChunkRefetches(), calls
		tb.K.RunFor(60 * sim.Second)
		if r.reports != 1 || d.ChunkRefetches() != refetches || calls != served {
			t.Fatalf("fault %v, after the failure: %d reports, refetches %d -> %d, repository calls %d -> %d",
				tc.kind, r.reports, refetches, d.ChunkRefetches(), served, calls)
		}
		assertNoLeak(t, tb, 0, freeIPs, 0)
	}
}

// A chunk whose origin serve is reset on every attempt fails the fetch
// after chunkMaxAttempts, and every prime waiting on that fetch — here
// two joined ones — receives the error.
func TestChunkErrorOnEveryAttemptFailsEveryWaiter(t *testing.T) {
	tb := replicaTestbed(t, 1, 83)
	img := oneChunkImage("one")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	freeIPs := d.FreeIPs()
	calls := 0
	tb.Repo.SetFaultHook(failOnChunks(image.FaultError, &calls))
	a := startPrime(tb, d, "a", img)
	b := startPrime(tb, d, "b", img)
	settlePrimes(t, tb, a, b)
	for _, r := range []*primeResult{a, b} {
		if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "failed 4 attempts") {
			t.Fatalf("prime error = %v, want a transient failure after 4 attempts", r.err)
		}
	}
	if a.err.Error() != b.err.Error() || a.at != b.at {
		t.Fatalf("joined primes settled apart: %v at %v, %v at %v", a.err, a.at, b.err, b.at)
	}
	if calls != 1+4 || d.ChunkRefetches() != 0 || d.ChunksOrigin() != 0 || d.DownloadRetries() != 0 {
		t.Fatalf("repository calls=%d refetches=%d origin=%d retries=%d, want 5, 0, 0, 0",
			calls, d.ChunkRefetches(), d.ChunksOrigin(), d.DownloadRetries())
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)
}

// A manifest fetch reset on every attempt gives up after
// downloadAttempts (3) tries, two of them retries.
func TestManifestFetchFailsAfterRetries(t *testing.T) {
	tb := replicaTestbed(t, 1, 84)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	freeIPs := d.FreeIPs()
	calls := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind { calls++; return image.FaultError })
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "manifest fetch") {
		t.Fatalf("prime error = %v, want a transient manifest-fetch failure", r.err)
	}
	if calls != 3 || d.DownloadRetries() != 2 || d.ChunksOrigin() != 0 {
		t.Fatalf("repository calls=%d retries=%d origin=%d, want 3, 2, 0", calls, d.DownloadRetries(), d.ChunksOrigin())
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)
}

// With the daemon's plan requests delayed 150 s on the way to the
// Master, the fetch waits on a plan until the overall deadline (the
// 120 s floor for a small image) fails it; the plan that arrives later
// is dropped. The daemon is then free to fetch the image again once the
// link recovers.
func TestChunkFetchMissesOverallDeadline(t *testing.T) {
	tb := replicaTestbed(t, 1, 85)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	host := d.Host().Spec.Name
	freeIPs := d.FreeIPs()
	tb.Net.SetLinkFault(host, "master", 0, 150*sim.Second)
	calls := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind { calls++; return image.FaultNone })
	start := tb.K.Now()
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "timed out after 2m0s") {
		t.Fatalf("prime error = %v, want a transient 2m0s deadline", r.err)
	}
	if el := r.at.Sub(start); el < 120*sim.Second || el > 121*sim.Second {
		t.Fatalf("prime failed after %v, want just past the 120 s deadline", el)
	}
	tb.K.RunFor(60 * sim.Second)
	if calls != 1 || d.ChunksOrigin() != 0 || d.DownloadRetries() != 0 {
		t.Fatalf("repository calls=%d origin=%d retries=%d, want the manifest fetch only", calls, d.ChunksOrigin(), d.DownloadRetries())
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)

	tb.Net.ClearLinkFault(host, "master")
	again := startPrime(tb, d, "b", img)
	settlePrimes(t, tb, again)
	if again.err != nil {
		t.Fatalf("prime after the link recovered: %v", again.err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	if d.ChunksOrigin() != len(man.Chunks) {
		t.Fatalf("origin chunks = %d, want %d", d.ChunksOrigin(), len(man.Chunks))
	}
}

// A repository whose every reply takes 9 s (inside both the manifest's
// and the chunk attempt's deadlines) serves an 80-chunk image too slowly
// for the 120 s overall deadline. When it passes, the attempts still
// queued for a slot are dropped without a request.
func TestSlowFetchDropsQueuedAttemptsAtDeadline(t *testing.T) {
	tb := replicaTestbed(t, 1, 91)
	img := image.NewBuilder("big").WithService("/usr/sbin/httpd", 1<<20, 8080).PadToMB(320).MustBuild()
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	freeIPs := d.FreeIPs()
	tb.Net.SetLinkFault("asp-repo", d.Host().Spec.Name, 0, 9*sim.Second)
	calls := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind { calls++; return image.FaultNone })
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "timed out after 2m0s") {
		t.Fatalf("prime error = %v, want a transient 2m0s deadline", r.err)
	}
	served := calls
	tb.K.RunFor(60 * sim.Second)
	if calls != served || r.reports != 1 {
		t.Fatalf("repository calls %d -> %d and %d reports after the deadline", served, calls, r.reports)
	}
	if man, _ := tb.Repo.ManifestFor(img.Name); d.ChunksOrigin() >= len(man.Chunks) {
		t.Fatalf("origin chunks = %d of %d; the fixture must miss the deadline", d.ChunksOrigin(), len(man.Chunks))
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)
}

// A plan RPC that cannot be sent (the Master's address is gone) fails
// the fetch at once with the network's error, which is not transient.
func TestPlanRPCErrorFailsPrime(t *testing.T) {
	tb := replicaTestbed(t, 1, 86)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	freeIPs := d.FreeIPs()
	master, ok := tb.Net.Lookup(hup.MasterIP)
	if !ok {
		t.Fatal("master address not bridged")
	}
	// The manifest fetch is the repository's first call: unbridge the
	// Master then, after the prime command is in and before the first
	// plan request goes out.
	calls := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind {
		if calls++; calls == 1 {
			master.RemoveIP(hup.MasterIP)
		}
		return image.FaultNone
	})
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if err := master.AddIP(hup.MasterIP); err != nil {
		t.Fatal(err)
	}
	if r.err == nil || errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "not bridged") {
		t.Fatalf("prime error = %v, want the plan RPC's network error", r.err)
	}
	if calls != 1 || d.ChunksOrigin() != 0 || d.DownloadRetries() != 0 {
		t.Fatalf("repository calls=%d origin=%d retries=%d, want 1, 0, 0", calls, d.ChunksOrigin(), d.DownloadRetries())
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)
}

// A prime on a full disk fetches every chunk but cannot pin the
// assembled image (nor copy it for the node). Once disk is freed, the
// next prime finds every chunk held and assembles the image from the
// store without fetching anything.
func TestChunkedPrimeAssemblesHeldChunksWhenUnpinned(t *testing.T) {
	tb := replicaTestbed(t, 1, 87)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	d, h := tb.Daemons[0], tb.Hosts[0]
	freeIPs := d.FreeIPs()
	full := h.Spec.DiskMB
	if err := h.UseDisk(full); err != nil {
		t.Fatal(err)
	}
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if r.err == nil || !strings.Contains(r.err.Error(), "disk full") {
		t.Fatalf("prime on a full disk: err = %v", r.err)
	}
	if d.ChunksOrigin() != len(man.Chunks) || d.CachedImages() != 0 {
		t.Fatalf("origin=%d pinned=%d, want every chunk fetched and nothing pinned", d.ChunksOrigin(), d.CachedImages())
	}
	assertNoLeak(t, tb, 0, freeIPs, full)

	h.FreeDisk(full)
	again := startPrime(tb, d, "b", img)
	settlePrimes(t, tb, again)
	if again.err != nil {
		t.Fatalf("prime from held chunks: %v", again.err)
	}
	if d.ChunksOrigin() != len(man.Chunks) || d.ChunksHit() != len(man.Chunks) || d.CacheHits() != 0 {
		t.Fatalf("origin=%d hit=%d cache hits=%d, want no new fetch and %d held chunks",
			d.ChunksOrigin(), d.ChunksHit(), d.CacheHits(), len(man.Chunks))
	}
	if d.CachedImages() != 1 || again.info.Guest.Image != img {
		t.Fatalf("pinned=%d, guest image %p, want the published %p pinned", d.CachedImages(), again.info.Guest.Image, img)
	}
	if got := diskUsedMB(h); got != 2*img.SizeMB() {
		t.Fatalf("%d MB disk pinned, want the image pinned and copied (%d MB)", got, 2*img.SizeMB())
	}
}

// With the repository's replies delayed past the manifest fetch's 10 s
// attempt deadline, every attempt times out and its late reply is
// dropped: the fetch fails after three attempts without ever planning a
// chunk, and the daemon fetches the image once the delay is gone.
func TestManifestFetchTimesOutAndDropsLateReplies(t *testing.T) {
	tb := replicaTestbed(t, 1, 88)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	host := d.Host().Spec.Name
	freeIPs := d.FreeIPs()
	tb.Net.SetLinkFault("asp-repo", host, 0, 11*sim.Second)
	calls := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind { calls++; return image.FaultNone })
	r := startPrime(tb, d, "a", img)
	settlePrimes(t, tb, r)
	if !errors.Is(r.err, image.ErrTransient) || !strings.Contains(r.err.Error(), "manifest fetch of \"img\" timed out after 10s") {
		t.Fatalf("prime error = %v, want a transient 10 s manifest timeout", r.err)
	}
	if d.DownloadRetries() != 2 || d.ChunksOrigin() != 0 || len(tb.Master.ImageHolders()) != 0 {
		t.Fatalf("retries=%d origin=%d holders=%v, want 2, 0, none", d.DownloadRetries(), d.ChunksOrigin(), tb.Master.ImageHolders())
	}
	// Let the last late reply land: no late reply may start the chunk
	// serves of a fetch.
	tb.K.RunFor(15 * sim.Second)
	if calls != 3 {
		t.Fatalf("%d repository calls, want the 3 manifest attempts", calls)
	}
	assertNoLeak(t, tb, 0, freeIPs, 0)

	tb.Net.ClearLinkFault("asp-repo", host)
	again := startPrime(tb, d, "b", img)
	settlePrimes(t, tb, again)
	if again.err != nil {
		t.Fatalf("prime after the delay cleared: %v", again.err)
	}
}

// A peer that no longer holds a planned chunk answers with a NACK, and
// the requester fetches that chunk from the repository at once instead
// of waiting out the 15 s attempt deadline. Here the holder drops its
// store while the requests to it are still on a slow link.
func TestPeerMissFallsBackToOrigin(t *testing.T) {
	tb := replicaTestbed(t, 2, 89)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	holder, requester := tb.Daemons[0], tb.Daemons[1]
	settlePrimes(t, tb, startPrime(tb, holder, "a", img))
	tb.Net.SetLinkFault(requester.Host().Spec.Name, holder.Host().Spec.Name, 0, sim.Second)
	tb.K.After(500*sim.Millisecond, holder.DropImageCache)
	start := tb.K.Now()
	r := startPrime(tb, requester, "b", img)
	settlePrimes(t, tb, r)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if requester.ChunksPeer() != 0 || requester.ChunksOrigin() != len(man.Chunks) || holder.ChunksServed() != 0 {
		t.Fatalf("peer=%d origin=%d served=%d, want every chunk from the origin and none served",
			requester.ChunksPeer(), requester.ChunksOrigin(), holder.ChunksServed())
	}
	if el := r.at.Sub(start); el >= 15*sim.Second {
		t.Fatalf("prime took %v; a NACK must not wait out the attempt deadline", el)
	}
}

// A failed fetch releases the tracker's assignments for the chunks it
// gave up. Otherwise origin dedup would defer another daemon's fetch of
// those chunks until the 60 s assignment TTL: daemon 1 primes the image
// right after daemon 0's fetch failed on chunk resets, and must take
// about as long as an undisturbed prime.
func TestFailedFetchReleasesTrackerAssignments(t *testing.T) {
	tb := replicaTestbed(t, 2, 92)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	calls := 0
	tb.Repo.SetFaultHook(failOnChunks(image.FaultError, &calls))
	failed := startPrime(tb, tb.Daemons[0], "a", img)
	settlePrimes(t, tb, failed)
	if !errors.Is(failed.err, image.ErrTransient) {
		t.Fatalf("daemon 0's prime error = %v, want a transient chunk failure", failed.err)
	}
	tb.Repo.SetFaultHook(nil)
	start := tb.K.Now()
	r := startPrime(tb, tb.Daemons[1], "b", img)
	settlePrimes(t, tb, r)
	if r.err != nil {
		t.Fatalf("daemon 1's prime: %v", r.err)
	}
	if el := r.at.Sub(start); el > 20*sim.Second {
		t.Fatalf("daemon 1's prime took %v after daemon 0's fetch failed, want well under the 60 s assignment TTL", el)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	if got := tb.Daemons[1].ChunksOrigin(); got != len(man.Chunks) {
		t.Fatalf("daemon 1 fetched %d chunks from the origin, want all %d", got, len(man.Chunks))
	}
}
