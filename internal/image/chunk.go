package image

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// DefaultChunkBytes is the fixed chunk size images are split into for
// cooperative distribution. 4 MiB matches the builder's pad-blob size, so
// padded images chunk exactly; real-world systems (BitTorrent, casync,
// OCI layers) pick the same order of magnitude.
const DefaultChunkBytes = 4 << 20

// Chunk wire framing: each chunk fetch is one request/response exchange
// on a persistent connection — a small request naming the chunk, then the
// payload with per-chunk framing.
const (
	chunkReqBytes    = 96
	chunkFrameBytes  = 256
	manifestPerChunk = 48 // id + path hash + lengths on the wire
)

// Chunk is one fixed-size piece of an image's packaged file system,
// addressed by content: the ID digests the piece's identity (path, piece
// index, extent, mode) with FNV-1a — deliberately NOT the image name, so
// a file unchanged between web-1.0 and web-1.1 yields the same chunk ID
// in both manifests and a host holding one version primes the next by
// fetching only the chunks that differ.
type Chunk struct {
	// ID is the chunk's content address (FNV-1a).
	ID uint64
	// Path is the file this piece belongs to.
	Path string
	// Piece is the piece index within the file (0 for files that fit in
	// one chunk).
	Piece int
	// Bytes is the piece's payload size.
	Bytes int64
}

// Manifest is the per-image chunk table: what the repository serves first
// so a daemon can plan a multi-source download. Content bytes are
// synthetic in this model, so the manifest carries a reference to the
// sealed master image; Materialize hands it out once every chunk has
// been fetched and verified.
type Manifest struct {
	// ImageName names the image this manifest describes.
	ImageName string
	// Checksum is the sealed image's manifest checksum.
	Checksum uint64
	// ChunkBytes is the chunking granularity used.
	ChunkBytes int64
	// Chunks lists the pieces in file-path order.
	Chunks []Chunk

	byID   map[uint64]*Chunk
	master *Image
}

// fnvMix folds a string and a few integers into an FNV-1a state.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0xff
	h *= fnvPrime64
	return h
}

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// chunkID addresses one piece of one file. The image name is excluded on
// purpose: identity is the content's, not the package's, which is what
// makes version-to-version delta priming fall out for free.
func chunkID(f File, piece int, pieceBytes int64) uint64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, f.Path)
	h = fnvInt(h, int64(piece))
	h = fnvInt(h, pieceBytes)
	h = fnvInt(h, f.SizeBytes)
	if f.Executable {
		h = fnvInt(h, 1)
	} else {
		h = fnvInt(h, 0)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// BuildManifest splits an image into content-addressed chunks of at most
// chunkBytes each (0 means DefaultChunkBytes). Files larger than the
// chunk size are cut into pieces; smaller files are one chunk each.
// Deterministic: chunks appear in sorted file-path order.
func BuildManifest(im *Image, chunkBytes int64) *Manifest {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	m := &Manifest{
		ImageName:  im.Name,
		Checksum:   im.Checksum,
		ChunkBytes: chunkBytes,
		master:     im,
	}
	for _, f := range im.RootFS.List() {
		remaining := f.SizeBytes
		piece := 0
		for {
			n := remaining
			if n > chunkBytes {
				n = chunkBytes
			}
			m.Chunks = append(m.Chunks, Chunk{
				ID:    chunkID(f, piece, n),
				Path:  f.Path,
				Piece: piece,
				Bytes: n,
			})
			remaining -= n
			piece++
			if remaining <= 0 {
				break
			}
		}
	}
	m.byID = make(map[uint64]*Chunk, len(m.Chunks))
	for i := range m.Chunks {
		m.byID[m.Chunks[i].ID] = &m.Chunks[i]
	}
	return m
}

// ChunkByID returns the chunk with the given content address, or nil.
func (m *Manifest) ChunkByID(id uint64) *Chunk {
	return m.byID[id]
}

// TotalBytes is the payload sum over all chunks (== the image size).
func (m *Manifest) TotalBytes() int64 {
	var total int64
	for i := range m.Chunks {
		total += m.Chunks[i].Bytes
	}
	return total
}

// Materialize assembles the image the manifest describes: the sealed
// master itself, shared and never modified, handed out only after the
// caller has fetched and verified every chunk. Nil if the manifest was
// built detached from its image.
func (m *Manifest) Materialize() *Image { return m.master }

// ManifestWireBytes is the on-the-wire size of fetching a manifest.
func ManifestWireBytes(m *Manifest) int64 {
	return httpHeaderBytes + int64(len(m.Chunks))*manifestPerChunk
}

// ChunkWireBytes is the on-the-wire size of one chunk transfer: payload
// plus framing.
func ChunkWireBytes(c *Chunk) int64 {
	return c.Bytes + chunkFrameBytes
}

// ChunkRequestBytes is the size of the request naming a chunk.
func ChunkRequestBytes() int64 { return chunkReqBytes }

// CorruptSum returns the checksum a bit-flipped delivery of the chunk
// would carry — what the FaultCorrupt hook hands receivers so per-chunk
// verification catches exactly the damaged piece.
func CorruptSum(id uint64) uint64 {
	s := ^id
	if s == 0 || s == id {
		s = id ^ 1
	}
	return s
}

// FetchManifest transfers the named image's chunk manifest to destIP: a
// small request to the repository, then the manifest payload back.
// Injected FaultError and FaultStall apply (a manifest fetch is a
// download attempt); FaultCorrupt is deferred to the chunk serves, where
// per-chunk verification localises it.
func (r *Repository) FetchManifest(name string, destIP simnet.IP, onDone func(*Manifest), onErr func(error)) {
	fail := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	m, err := r.ManifestFor(name)
	if err != nil {
		fail(err)
		return
	}
	fault := FaultNone
	if r.faultHook != nil {
		fault = r.faultHook(name)
	}
	if fault == FaultStall {
		return // vanishes; the caller's deadline cleans up
	}
	err = r.net.Transfer(destIP, r.IP, httpHeaderBytes, func() {
		if fault == FaultError {
			fail(fmt.Errorf("image: manifest fetch of %q from %s reset: %w", name, r.IP, ErrTransient))
			return
		}
		err := r.net.Transfer(r.IP, destIP, ManifestWireBytes(m), func() {
			if onDone != nil {
				onDone(m)
			}
		})
		if err != nil {
			fail(err)
		}
	})
	if err != nil {
		fail(err)
	}
}

// ManifestFor returns (building and caching on first use) the chunk
// manifest of a published image.
func (r *Repository) ManifestFor(name string) (*Manifest, error) {
	im, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	if r.manifests == nil {
		r.manifests = make(map[string]*Manifest)
	}
	if m, ok := r.manifests[name]; ok && m.master == im {
		return m, nil
	}
	m := BuildManifest(im, DefaultChunkBytes)
	r.manifests[name] = m
	return m, nil
}

// ServeChunk transfers one chunk of the named image to destIP — the
// repository acting as the origin source of a multi-source download.
// onDone receives the delivered payload's checksum, which the receiver
// compares against the chunk ID; an injected FaultCorrupt breaks exactly
// this one delivery, FaultError resets it after the request round-trip,
// and FaultStall swallows it so only the fetcher's deadline notices.
func (r *Repository) ServeChunk(name string, id uint64, destIP simnet.IP, onDone func(sum uint64, payload int64), onErr func(error)) {
	fail := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	m, err := r.ManifestFor(name)
	if err != nil {
		fail(err)
		return
	}
	c := m.ChunkByID(id)
	if c == nil {
		fail(fmt.Errorf("image: %q has no chunk %016x", name, id))
		return
	}
	fault := FaultNone
	if r.faultHook != nil {
		fault = r.faultHook(name)
	}
	if fault == FaultStall {
		return
	}
	err = r.net.Transfer(destIP, r.IP, chunkReqBytes, func() {
		if fault == FaultError {
			fail(fmt.Errorf("image: chunk %016x of %q from %s reset: %w", id, name, r.IP, ErrTransient))
			return
		}
		err := r.net.Transfer(r.IP, destIP, ChunkWireBytes(c), func() {
			if onDone != nil {
				sum := c.ID
				if fault == FaultCorrupt {
					sum = CorruptSum(c.ID)
				}
				onDone(sum, c.Bytes)
			}
		})
		if err != nil {
			fail(err)
		}
	})
	if err != nil {
		fail(err)
	}
}

// EstimateDownloadTimeContended returns the modelled transfer duration
// for an image when `flows` simultaneous downloads share the repository
// link — the mass-prime case EstimateDownloadTime gets wrong: the fluid
// link divides its rate across flows, so each takes ~flows times the
// lone-flow duration. Used to pre-size per-attempt download deadlines so
// a flash-crowd prime is not misdiagnosed as a stall.
func EstimateDownloadTimeContended(im *Image, mbps float64, flows int) sim.Duration {
	if flows < 1 {
		flows = 1
	}
	seconds := float64(WireBytes(im)) * float64(flows) / simnet.Mbps(mbps)
	return sim.Duration(seconds * float64(sim.Second))
}
