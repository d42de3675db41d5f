package image

import (
	"testing"
)

// FuzzImageCorruption drives the image identity machinery — path
// normalisation, manifest checksums, content-addressed chunking — with
// arbitrary inputs and checks the invariants the priming pipeline leans
// on: a sealed image verifies, every single-field mutation breaks
// verification, a manifest covers the image exactly and is deterministic,
// and a corrupted chunk delivery never carries a passing sum. Run under
// `go test -fuzz=FuzzImageCorruption ./internal/image/` (nightly CI gives
// it 10 minutes); plain `go test` replays the seed corpus.
func FuzzImageCorruption(f *testing.F) {
	f.Add("/usr/sbin/httpd", "/var/www/data/a.bin", "/etc/init.d/httpd", uint32(40960), uint32(1<<20), uint32(4096), uint16(64), byte(0), uint32(1))
	f.Add("/a", "/a/../b", "/a//c", uint32(0), uint32(7), uint32(1<<31-1), uint16(0), byte(1), uint32(0))
	f.Add("/x", "/x", "/y", uint32(5), uint32(5), uint32(5), uint16(1), byte(2), uint32(99))
	f.Add("/deep/ly/nested/path", "/./dot", "/..", uint32(1), uint32(2), uint32(3), uint16(1024), byte(3), uint32(7))

	f.Fuzz(func(t *testing.T, p1, p2, p3 string, s1, s2, s3 uint32, chunkKB uint16, mutSel byte, mutArg uint32) {
		// build makes the fuzzed image; a mutated variant is built the
		// same way, then changed before anything reads it.
		build := func() *Image {
			tree := newTree()
			// The service command anchors the image so Validate always
			// has a root to hold on to; the fuzzed paths layer on top
			// (duplicates and normalisation collisions are the point).
			mustAdd(t, tree, "/usr/sbin/svc", 4096, true)
			for i, p := range []string{p1, p2, p3} {
				size := []uint32{s1, s2, s3}[i]
				// Non-absolute or root-naming paths must be rejected,
				// never inserted mangled.
				if err := tree.add(p, int64(size), i%2 == 0); err != nil {
					if tree.Contains(p) {
						t.Fatalf("add(%q) errored %v yet the path is present", p, err)
					}
					continue
				}
			}
			return &Image{
				Name:            "fuzz-image",
				RootFS:          tree,
				ServiceCommand:  "/usr/sbin/svc",
				Port:            8080,
				WorkerProcesses: 1,
			}
		}
		im := build()
		if err := im.Validate(); err != nil {
			t.Fatalf("anchored image failed validation: %v", err)
		}
		im.Seal()
		if !im.Verify() {
			t.Fatal("freshly sealed image does not verify")
		}

		// Manifest invariants: exact coverage, addressability, bounded
		// piece sizes, and build determinism.
		chunkBytes := int64(chunkKB) << 10
		m := BuildManifest(im, chunkBytes)
		effective := chunkBytes
		if effective <= 0 {
			effective = DefaultChunkBytes
		}
		if got, want := m.TotalBytes(), im.SizeBytes(); got != want {
			t.Fatalf("manifest covers %d bytes, image holds %d", got, want)
		}
		for i := range m.Chunks {
			c := &m.Chunks[i]
			if c.Bytes < 0 || c.Bytes > effective {
				t.Fatalf("chunk %d of %s holds %d bytes, granularity %d", c.Piece, c.Path, c.Bytes, effective)
			}
			got := m.ChunkByID(c.ID)
			if got == nil || got.ID != c.ID {
				t.Fatalf("chunk %016x not addressable by its own ID", c.ID)
			}
			if CorruptSum(c.ID) == c.ID {
				t.Fatalf("corrupt delivery of chunk %016x would verify", c.ID)
			}
		}
		again := BuildManifest(im, chunkBytes)
		if len(again.Chunks) != len(m.Chunks) {
			t.Fatalf("rebuild produced %d chunks, first build %d", len(again.Chunks), len(m.Chunks))
		}
		for i := range m.Chunks {
			if again.Chunks[i] != m.Chunks[i] {
				t.Fatalf("rebuild diverged at chunk %d: %+v vs %+v", i, again.Chunks[i], m.Chunks[i])
			}
		}

		// The bit-flip model must always be caught.
		if flipped := im.Corrupted(); flipped.Verify() {
			t.Fatal("Corrupted() image still verifies")
		}

		// Any single structural mutation of a rebuilt image — resize,
		// mode flip, deletion, insertion — must break the original's
		// checksum: the checksum covers every file's path, size, and mode.
		mutated := build()
		mutated.Checksum = im.Checksum
		tree := mutated.RootFS
		files := tree.List()
		victim := files[int(mutArg)%len(files)]
		switch mutSel % 4 {
		case 0:
			mustAdd(t, tree, victim.Path, victim.SizeBytes+1+int64(mutArg), victim.Executable)
		case 1:
			mustAdd(t, tree, victim.Path, victim.SizeBytes, !victim.Executable)
		case 2:
			if !tree.Contains(victim.Path) {
				t.Fatalf("listed file %q not present", victim.Path)
			}
			delete(tree.files, victim.Path)
		case 3:
			if tree.Contains("/fuzz/planted") {
				return // fuzzed input already claimed the slot; nothing to assert
			}
			mustAdd(t, tree, "/fuzz/planted", int64(mutArg), false)
		}
		if mutated.Verify() {
			t.Fatalf("mutation %d of %q passed verification against the original checksum", mutSel%4, victim.Path)
		}
	})
}
