package image

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func chunkTestImage(t *testing.T) *Image {
	t.Helper()
	return NewBuilder("web-1.0").
		WithService("/usr/sbin/httpd", 2<<20, 8080).
		WithWorkers(4).
		WithSystemServices("network", "syslog").
		WithDataset(8, 64<<10).
		PadToMB(29).
		MustBuild()
}

func TestBuildManifestCoversImageExactly(t *testing.T) {
	im := chunkTestImage(t)
	m := BuildManifest(im, 0)
	if m.ChunkBytes != DefaultChunkBytes {
		t.Fatalf("chunk size %d, want default %d", m.ChunkBytes, int64(DefaultChunkBytes))
	}
	if m.TotalBytes() != im.SizeBytes() {
		t.Fatalf("chunks sum to %d bytes, image is %d", m.TotalBytes(), im.SizeBytes())
	}
	seen := make(map[uint64]bool, len(m.Chunks))
	for i := range m.Chunks {
		c := &m.Chunks[i]
		if c.Bytes <= 0 || c.Bytes > m.ChunkBytes {
			t.Fatalf("chunk %016x has %d bytes outside (0, %d]", c.ID, c.Bytes, m.ChunkBytes)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate chunk id %016x", c.ID)
		}
		seen[c.ID] = true
		if m.ChunkByID(c.ID) != c {
			t.Fatalf("ChunkByID(%016x) does not return the chunk", c.ID)
		}
	}
	if m.ChunkByID(0xdeadbeef) != nil {
		t.Fatal("ChunkByID invented a chunk")
	}
}

func TestBuildManifestSplitsLargeFiles(t *testing.T) {
	im := NewBuilder("big").WithService("/srv/app", 10<<20, 80).MustBuild()
	m := BuildManifest(im, 4<<20)
	var pieces []Chunk
	for _, c := range m.Chunks {
		if c.Path == "/srv/app" {
			pieces = append(pieces, c)
		}
	}
	if len(pieces) != 3 {
		t.Fatalf("10MB file at 4MB chunks split into %d pieces, want 3", len(pieces))
	}
	var sum int64
	for i, c := range pieces {
		if c.Piece != i {
			t.Fatalf("piece %d carries index %d", i, c.Piece)
		}
		sum += c.Bytes
	}
	if sum != 10<<20 {
		t.Fatalf("pieces sum to %d, want %d", sum, int64(10<<20))
	}
	if pieces[0].ID == pieces[1].ID {
		t.Fatal("different pieces of one file share an ID")
	}
}

func TestBuildManifestDeterministic(t *testing.T) {
	a := BuildManifest(chunkTestImage(t), 0)
	b := BuildManifest(chunkTestImage(t), 0)
	if len(a.Chunks) != len(b.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a.Chunks), len(b.Chunks))
	}
	for i := range a.Chunks {
		if a.Chunks[i] != b.Chunks[i] {
			t.Fatalf("chunk %d differs across identical builds: %+v vs %+v", i, a.Chunks[i], b.Chunks[i])
		}
	}
}

func TestManifestDeltaSharingAcrossVersions(t *testing.T) {
	// web-1.1 changes the service binary but keeps the padding and
	// dataset; the unchanged files must hash to the same chunk IDs so a
	// host holding web-1.0 only fetches the delta.
	v10 := NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 2<<20, 8080).WithDataset(8, 64<<10).PadToMB(29).MustBuild()
	v11 := NewBuilder("web-1.1").WithService("/usr/sbin/httpd", 3<<20, 8080).WithDataset(8, 64<<10).PadToMB(29).MustBuild()
	m10 := BuildManifest(v10, 0)
	m11 := BuildManifest(v11, 0)
	held := make(map[uint64]bool, len(m10.Chunks))
	for _, c := range m10.Chunks {
		held[c.ID] = true
	}
	var shared, novel int
	for _, c := range m11.Chunks {
		if held[c.ID] {
			shared++
		} else {
			novel++
		}
	}
	if shared == 0 {
		t.Fatal("no chunks shared between versions; delta priming is broken")
	}
	if novel == 0 {
		t.Fatal("changed binary produced no new chunks")
	}
	// The changed binary must not collide with its old self.
	for _, c := range m11.Chunks {
		if c.Path == "/usr/sbin/httpd" && held[c.ID] {
			t.Fatalf("changed file %s piece %d kept its old chunk ID", c.Path, c.Piece)
		}
	}
}

func TestMaterializeReturnsPrivateClone(t *testing.T) {
	im := chunkTestImage(t)
	m := BuildManifest(im, 0)
	if m.Materialize() != im {
		t.Fatal("Materialize did not return the master image")
	}
	detached := &Manifest{ImageName: "x"}
	if detached.Materialize() != nil {
		t.Fatal("detached manifest materialized an image")
	}
}

func TestFetchManifestOverLAN(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := chunkTestImage(t)
	repo.Publish(im)
	var got *Manifest
	repo.FetchManifest("web-1.0", "128.10.9.1", func(m *Manifest) { got = m }, func(err error) { t.Error(err) })
	k.Run()
	if got == nil {
		t.Fatal("manifest never arrived")
	}
	if got.ImageName != "web-1.0" || got.Checksum != im.Checksum {
		t.Fatalf("manifest %q sum %x, want %q sum %x", got.ImageName, got.Checksum, "web-1.0", im.Checksum)
	}
	if got.TotalBytes() != im.SizeBytes() {
		t.Fatalf("manifest covers %d bytes, image is %d", got.TotalBytes(), im.SizeBytes())
	}
}

func TestFetchManifestUnknownImageErrors(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	var gotErr error
	repo.FetchManifest("missing", "128.10.9.1", func(*Manifest) { t.Error("unexpected success") }, func(err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("no error for missing image")
	}
}

func TestServeChunkDeliversVerifiableSum(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := chunkTestImage(t)
	repo.Publish(im)
	m, err := repo.ManifestFor("web-1.0")
	if err != nil {
		t.Fatal(err)
	}
	c := &m.Chunks[0]
	var sum uint64
	var payload int64
	var done sim.Time
	repo.ServeChunk("web-1.0", c.ID, "128.10.9.1", func(s uint64, n int64) { sum, payload, done = s, n, k.Now() }, func(err error) { t.Error(err) })
	k.Run()
	if sum != c.ID {
		t.Fatalf("delivered sum %016x, want %016x", sum, c.ID)
	}
	if payload != c.Bytes {
		t.Fatalf("delivered %d bytes, want %d", payload, c.Bytes)
	}
	// Delivery time tracks the chunk's wire size at the 100 Mbps link,
	// plus one propagation latency per direction.
	want := float64(ChunkWireBytes(c)+ChunkRequestBytes())/(100e6/8) + 2*(100*sim.Microsecond).Seconds()
	if math.Abs(done.Seconds()-want) > 0.10*want {
		t.Fatalf("chunk served in %.4fs, want ≈%.4fs", done.Seconds(), want)
	}
}

func TestServeChunkUnknownChunkErrors(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	repo.Publish(chunkTestImage(t))
	var gotErr error
	repo.ServeChunk("web-1.0", 0xdeadbeef, "128.10.9.1", func(uint64, int64) { t.Error("unexpected success") }, func(err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("unknown chunk served")
	}
}

func TestServeChunkFaults(t *testing.T) {
	k, _, repo := newRepoLAN(t)
	im := chunkTestImage(t)
	repo.Publish(im)
	m, _ := repo.ManifestFor("web-1.0")
	c := &m.Chunks[0]

	// Corrupt: delivery completes but the sum no longer matches the ID.
	repo.SetFaultHook(func(string) FaultKind { return FaultCorrupt })
	var sum uint64
	repo.ServeChunk("web-1.0", c.ID, "128.10.9.1", func(s uint64, _ int64) { sum = s }, func(err error) { t.Error(err) })
	k.Run()
	if sum == 0 {
		t.Fatal("corrupt serve never completed")
	}
	if sum == c.ID {
		t.Fatal("corrupt serve delivered a matching sum")
	}
	if sum != CorruptSum(c.ID) {
		t.Fatalf("corrupt sum %016x, want %016x", sum, CorruptSum(c.ID))
	}

	// Error: the attempt resets with a transient error.
	repo.SetFaultHook(func(string) FaultKind { return FaultError })
	var gotErr error
	repo.ServeChunk("web-1.0", c.ID, "128.10.9.1", func(uint64, int64) { t.Error("unexpected success") }, func(err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("FaultError serve succeeded")
	}

	// Stall: neither callback fires; only a deadline would notice.
	repo.SetFaultHook(func(string) FaultKind { return FaultStall })
	fired := false
	repo.ServeChunk("web-1.0", c.ID, "128.10.9.1", func(uint64, int64) { fired = true }, func(error) { fired = true })
	k.Run()
	if fired {
		t.Fatal("stalled serve fired a callback")
	}
}

func TestManifestForTracksRepublish(t *testing.T) {
	_, _, repo := newRepoLAN(t)
	repo.Publish(chunkTestImage(t))
	m1, err := repo.ManifestFor("web-1.0")
	if err != nil {
		t.Fatal(err)
	}
	if m2, _ := repo.ManifestFor("web-1.0"); m2 != m1 {
		t.Fatal("manifest not cached across calls")
	}
	// Republish a different build under the same name: the stale
	// manifest must be rebuilt.
	repo.Publish(NewBuilder("web-1.0").WithService("/usr/sbin/httpd", 3<<20, 8080).PadToMB(31).MustBuild())
	m3, err := repo.ManifestFor("web-1.0")
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("republish served the stale manifest")
	}
}

func TestCorruptSumNeverMatches(t *testing.T) {
	for _, id := range []uint64{0, 1, ^uint64(0), 0xdeadbeefcafef00d} {
		if s := CorruptSum(id); s == id || s == 0 {
			t.Fatalf("CorruptSum(%016x) = %016x", id, s)
		}
	}
}

func TestEstimateDownloadTimeContended(t *testing.T) {
	im := chunkTestImage(t)
	lone := EstimateDownloadTime(im, 100)
	if got := EstimateDownloadTimeContended(im, 100, 1); got != lone {
		t.Fatalf("lone-flow contended estimate %v, want %v", got, lone)
	}
	if got := EstimateDownloadTimeContended(im, 100, 0); got != lone {
		t.Fatalf("zero flows estimate %v, want %v", got, lone)
	}
	eight := EstimateDownloadTimeContended(im, 100, 8)
	if r := float64(eight) / float64(lone); math.Abs(r-8.0) > 1e-9 {
		t.Fatalf("8-flow estimate is %.2fx the lone flow, want 8x", r)
	}
}
