package soda_test

import (
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/soda"
)

// replicaTestbed builds an n-host HUP of identical tacoma-class
// replicas with chunk distribution enabled.
func replicaTestbed(t *testing.T, n int, seed uint64) *hup.Testbed {
	t.Helper()
	hosts := make([]hostos.Spec, n)
	for i := range hosts {
		s := hostos.Tacoma()
		s.Name = fmt.Sprintf("replica-%02d", i)
		hosts[i] = s
	}
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "key"); err != nil {
		t.Fatal(err)
	}
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	return tb
}

// oneNodeM forces exactly one instance per tacoma host (768 MB RAM).
func oneNodeM() soda.MachineConfig {
	return soda.MachineConfig{CPUMHz: 128, MemoryMB: 512, DiskMB: 64, BandwidthMbps: 1}
}

func TestChunkedPrimeSingleReplica(t *testing.T) {
	tb := replicaTestbed(t, 1, 71)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, err := tb.Repo.ManifestFor(img.Name)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "a", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(svc.Nodes))
	}
	d := tb.Daemons[0]
	if d.ChunksOrigin() != len(man.Chunks) {
		t.Fatalf("origin chunks = %d, want all %d (no peers exist)", d.ChunksOrigin(), len(man.Chunks))
	}
	if d.ChunksPeer() != 0 || d.BytesFromPeers() != 0 {
		t.Fatalf("peer sourcing on a one-host HUP: %d chunks, %d bytes", d.ChunksPeer(), d.BytesFromPeers())
	}
	if d.BytesFromOrigin() != img.SizeBytes() {
		t.Fatalf("origin bytes = %d, want image payload %d", d.BytesFromOrigin(), img.SizeBytes())
	}
	if d.CachedImages() != 1 {
		t.Fatal("assembled image not pinned in the store")
	}
	// A repeat prime is a pure local hit.
	if _, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "b", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement:  soda.Requirement{N: 1, M: soda.MachineConfig{CPUMHz: 64, MemoryMB: 128, DiskMB: 64, BandwidthMbps: 1}},
		GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	if d.CacheHits() != 1 || d.ChunksHit() != len(man.Chunks) {
		t.Fatalf("repeat prime: hits=%d chunk hits=%d", d.CacheHits(), d.ChunksHit())
	}
}

// massPrime primes one image across n replicas and returns the testbed.
func massPrime(t *testing.T, n int, seed uint64) (*hup.Testbed, *image.Image) {
	t.Helper()
	tb := replicaTestbed(t, n, seed)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	svc, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "flash", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: n, M: oneNodeM()}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Nodes) != n {
		t.Fatalf("nodes = %d, want %d", len(svc.Nodes), n)
	}
	return tb, img
}

func TestMassPrimeDedupsOriginAndUsesPeers(t *testing.T) {
	const n = 8
	tb, img := massPrime(t, n, 72)
	man, _ := tb.Repo.ManifestFor(img.Name)
	chunkCount := len(man.Chunks)

	var origin, peer, refetch int
	var peerBytes, originBytes int64
	for _, d := range tb.Daemons {
		origin += d.ChunksOrigin()
		peer += d.ChunksPeer()
		refetch += d.ChunkRefetches()
		peerBytes += d.BytesFromPeers()
		originBytes += d.BytesFromOrigin()
		if d.CachedImages() != 1 {
			t.Fatalf("%s: assembled image not pinned", d.Host().Spec.Name)
		}
	}
	// No duplicate origin fetches: the repository streamed each chunk
	// exactly once across the whole flash crowd (no faults here).
	if origin != chunkCount {
		t.Fatalf("origin chunk fetches = %d, want exactly %d", origin, chunkCount)
	}
	if peer != (n-1)*chunkCount {
		t.Fatalf("peer chunk fetches = %d, want %d", peer, (n-1)*chunkCount)
	}
	if refetch != 0 {
		t.Fatalf("%d refetches on a fault-free run", refetch)
	}
	total := peerBytes + originBytes
	if peerBytes*2 < total {
		t.Fatalf("peers sourced %d of %d bytes, want ≥ half", peerBytes, total)
	}
	// The tracker's holder map sees everyone fully assembled.
	views := tb.Master.ImageHolders()
	if len(views) != 1 || views[0].FullHolders != n || len(views[0].PerHost) != n {
		t.Fatalf("holder map = %+v", views)
	}
}

func TestMassPrimeSameSeedIsByteIdentical(t *testing.T) {
	type tally struct {
		peerBytes, originBytes int64
		peer, origin, hit      int
	}
	run := func() []tally {
		tb, _ := massPrime(t, 6, 73)
		out := make([]tally, len(tb.Daemons))
		for i, d := range tb.Daemons {
			out[i] = tally{d.BytesFromPeers(), d.BytesFromOrigin(), d.ChunksPeer(), d.ChunksOrigin(), d.ChunksHit()}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("daemon %d diverged across same-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCorruptChunkRefetchesOnlyThatChunk(t *testing.T) {
	tb := replicaTestbed(t, 1, 74)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	// Call 1 is the manifest fetch (corruption there is a no-op by
	// design); call 2 is the first chunk serve — corrupt exactly it.
	calls := 0
	tb.Repo.SetFaultHook(func(string) image.FaultKind {
		calls++
		if calls == 2 {
			return image.FaultCorrupt
		}
		return image.FaultNone
	})
	if _, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "a", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	if d.ChunkRefetches() != 1 {
		t.Fatalf("refetches = %d, want exactly the one corrupt chunk", d.ChunkRefetches())
	}
	// Every chunk arrived from the origin exactly once, plus nothing —
	// the corrupt delivery is not counted, only its clean replacement.
	if d.ChunksOrigin() != len(man.Chunks) {
		t.Fatalf("origin chunks = %d, want %d", d.ChunksOrigin(), len(man.Chunks))
	}
	if d.DownloadRetries() != 0 {
		t.Fatalf("whole-image retries = %d; corruption must stay chunk-local", d.DownloadRetries())
	}
}

func TestCrashedHolderFallsBackToOrigin(t *testing.T) {
	tb := replicaTestbed(t, 2, 75)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	svc, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "a", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash the holder; the tracker must not direct the second prime at
	// a dead peer.
	holder := -1
	for i, d := range tb.Daemons {
		if d.Host().Spec.Name == svc.Nodes[0].HostName {
			holder = i
		}
	}
	tb.Daemons[holder].Crash()
	if _, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "b", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	other := tb.Daemons[1-holder]
	if other.ChunksPeer() != 0 {
		t.Fatalf("fetched %d chunks from a crashed peer", other.ChunksPeer())
	}
	if other.ChunksOrigin() != len(man.Chunks) {
		t.Fatalf("origin chunks = %d, want %d", other.ChunksOrigin(), len(man.Chunks))
	}
}

func TestUnreachablePeerFallsBackToOrigin(t *testing.T) {
	tb := replicaTestbed(t, 2, 76)
	img := hup.HoneypotImage("img")
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	man, _ := tb.Repo.ManifestFor(img.Name)
	svc, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "a", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
	})
	if err != nil {
		t.Fatal(err)
	}
	holderHost := svc.Nodes[0].HostName
	holder := -1
	for i, d := range tb.Daemons {
		if d.Host().Spec.Name == holderHost {
			holder = i
		}
	}
	otherHost := tb.Daemons[1-holder].Host().Spec.Name
	// The holder stays alive (the tracker keeps offering it) but the
	// link to the requester is cut: chunk requests vanish, attempts time
	// out, and each chunk individually falls back to the repository.
	tb.Net.SetLinkFault(otherHost, holderHost, 1.0, 0)
	if _, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "b", ImageName: img.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: img.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	other := tb.Daemons[1-holder]
	if other.ChunksPeer() != 0 {
		t.Fatalf("fetched %d chunks across a dead link", other.ChunksPeer())
	}
	if other.ChunksOrigin() != len(man.Chunks) {
		t.Fatalf("origin chunks = %d, want %d", other.ChunksOrigin(), len(man.Chunks))
	}
}

func TestDeltaPrimingFetchesOnlyChangedChunks(t *testing.T) {
	tb := replicaTestbed(t, 1, 77)
	v10 := hup.WebContentImage("web-1.0", 2)
	if err := tb.Publish(v10); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "a", ImageName: v10.Name, Repository: hup.RepoIP,
		Requirement: soda.Requirement{N: 1, M: oneNodeM()}, GuestProfile: v10.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	d := tb.Daemons[0]
	originAfterV10 := d.ChunksOrigin()

	// web-1.1 ships a bigger binary but identical padding and dataset:
	// the host holding web-1.0 fetches only the delta.
	v11 := image.NewBuilder("web-1.1").
		WithService("/usr/sbin/httpd", 3<<20, 8080).
		WithWorkers(8).
		WithSystemServices(v10.SystemServices...).
		WithDataset(2*32, 32<<10).
		PadToMB(31).
		MustBuild()
	if err := tb.Publish(v11); err != nil {
		t.Fatal(err)
	}
	m10, _ := tb.Repo.ManifestFor(v10.Name)
	m11, _ := tb.Repo.ManifestFor(v11.Name)
	held := make(map[uint64]bool)
	for _, c := range m10.Chunks {
		held[c.ID] = true
	}
	delta := 0
	for _, c := range m11.Chunks {
		if !held[c.ID] {
			delta++
		}
	}
	if delta == 0 || delta == len(m11.Chunks) {
		t.Fatalf("bad fixture: delta %d of %d chunks", delta, len(m11.Chunks))
	}
	if _, err := tb.CreateService("key", soda.ServiceSpec{
		Name: "b", ImageName: v11.Name, Repository: hup.RepoIP,
		Requirement:  soda.Requirement{N: 1, M: soda.MachineConfig{CPUMHz: 64, MemoryMB: 128, DiskMB: 64, BandwidthMbps: 1}},
		GuestProfile: v11.SystemServices,
	}); err != nil {
		t.Fatal(err)
	}
	fetched := d.ChunksOrigin() - originAfterV10
	if fetched != delta {
		t.Fatalf("v1.1 prime fetched %d chunks, want only the %d-chunk delta", fetched, delta)
	}
	if d.ChunksHit() < len(m11.Chunks)-delta {
		t.Fatalf("chunk hits = %d, want ≥ %d shared chunks", d.ChunksHit(), len(m11.Chunks)-delta)
	}
	if d.CachedImages() != 2 {
		t.Fatalf("pinned images = %d, want both versions", d.CachedImages())
	}
}

func TestChunkStoreStatsAndDrop(t *testing.T) {
	tb, img := massPrime(t, 3, 78)
	man, _ := tb.Repo.ManifestFor(img.Name)
	for _, d := range tb.Daemons {
		st := d.ChunkStoreStats()
		if st.Chunks != len(man.Chunks) || st.Images != 1 {
			t.Fatalf("%s: stats %+v", st.Host, st)
		}
		if st.Bytes != img.SizeBytes() {
			t.Fatalf("%s: store bytes %d, want %d", st.Host, st.Bytes, img.SizeBytes())
		}
	}
	// Peer serves happened somewhere.
	served := 0
	for _, d := range tb.Daemons {
		served += d.ChunksServed()
	}
	if served == 0 {
		t.Fatal("no chunks served by peers")
	}
	d := tb.Daemons[0]
	d.DropImageCache()
	if st := d.ChunkStoreStats(); st.Chunks != 0 || st.Images != 0 {
		t.Fatalf("store not emptied: %+v", st)
	}
}
