package soda

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// The daemon's side of cooperative image distribution: the tuning of
// the multi-source chunk fetch engine.
const (
	// chunkPerSourceCap bounds a daemon's concurrent fetches against any
	// one source (peer or origin).
	chunkPerSourceCap = 4
	// chunkBatchSize bounds how many chunks one plan RPC asks the
	// tracker about.
	chunkBatchSize = 16
	// chunkAttemptTimeout is the per-chunk-attempt deadline: a silent
	// source (crashed peer, stalled origin) is abandoned and the chunk
	// re-planned.
	chunkAttemptTimeout = 15 * sim.Second
	// chunkReplanDelay is the pause before re-asking the tracker about
	// deferred chunks.
	chunkReplanDelay = 250 * sim.Millisecond
	// chunkMaxAttempts bounds fetch attempts per chunk before the whole
	// prime fails.
	chunkMaxAttempts = 4
)

// The tracker's side: the Master's planning bounds.
const (
	// chunkSourceCap bounds how many chunk transfers the tracker aims at
	// one peer daemon at a time, across all requesters.
	chunkSourceCap = 4
	// chunkOriginCap bounds concurrent chunk transfers from the
	// repository — the budget mass priming is trying to stop
	// monopolising.
	chunkOriginCap = 8
	// chunkAssignTTL expires an assignment whose requester never
	// announced the chunk (it crashed or gave up), releasing the
	// source's slot.
	chunkAssignTTL = 60 * sim.Second
)

// Chunk protocol wire sizes (beyond what internal/image models): the
// plan RPC to the tracker and the per-chunk announce.
const (
	planReqBase      = 64
	planReqPerChunk  = 8
	planRespBase     = 16
	planRespPerChunk = 12
	announceBytes    = 80
	chunkNackBytes   = 64
)

// storedImage is one fully assembled image pinned in the chunk store.
type storedImage struct {
	img      *image.Image
	manifest *image.Manifest
	diskMB   int
}

// chunkStore is the daemon's content-addressed chunk cache: individual
// chunks (possibly of images never fully assembled here) plus assembled
// master images. Disk is charged per assembled image, mirroring the old
// whole-image cache; chunk staging space is modelled as free.
type chunkStore struct {
	chunks map[uint64]int64 // chunk ID → payload bytes
	images map[string]*storedImage
}

// heldImage summarises one image's presence in the store for tracker
// seeding.
type heldImage struct {
	ids   []uint64
	total int
	full  bool
}

// ChunkStoreEnabled reports whether the daemon retains images as chunks.
func (d *Daemon) ChunkStoreEnabled() bool { return d.store != nil }

// attachChunkCoordinator gives the daemon a content-addressed chunk
// store — fetched images are retained as chunks + an assembled master,
// repeat primes are local hits, and the store doubles as a serve path
// for peers — and points it at its tracker (the Master), recording this
// daemon's index in the Master's table. Installed once by
// Master.EnableChunkDistribution.
func (d *Daemon) attachChunkCoordinator(m *Master, index int) {
	d.store = &chunkStore{
		chunks: make(map[uint64]int64),
		images: make(map[string]*storedImage),
	}
	d.coord = m
	d.coordIdx = index
	d.fetchSet = simnet.NewFetchSet(d.net, chunkPerSourceCap)
	d.fetching = make(map[string]*chunkFetch)
}

// ChunksHit counts chunks a fetch found already held (delta priming) or
// read from a pinned image.
func (d *Daemon) ChunksHit() int { return int(d.chunkHitCtr.Value()) }

// ChunksPeer counts chunks fetched from peer daemons.
func (d *Daemon) ChunksPeer() int { return int(d.chunkPeerCtr.Value()) }

// ChunksOrigin counts chunks fetched from the repository.
func (d *Daemon) ChunksOrigin() int { return int(d.chunkOriginCtr.Value()) }

// ChunksServed counts chunks this daemon served to peers.
func (d *Daemon) ChunksServed() int { return int(d.chunkServedCtr.Value()) }

// ChunkRefetches counts chunk deliveries that failed verification.
func (d *Daemon) ChunkRefetches() int { return int(d.chunkRefetchCtr.Value()) }

// BytesFromPeers counts chunk payload bytes fetched from peer daemons.
func (d *Daemon) BytesFromPeers() int64 { return d.bytesPeerCtr.Value() }

// BytesFromOrigin counts chunk payload bytes fetched from the
// repository.
func (d *Daemon) BytesFromOrigin() int64 { return d.bytesOriginCtr.Value() }

// ChunkStoreStats is the daemon's chunk-store occupancy and sourcing
// breakdown.
type ChunkStoreStats struct {
	Host        string `json:"host"`
	Chunks      int    `json:"chunks"`
	Bytes       int64  `json:"bytes"`
	Images      int    `json:"images"`
	CacheHits   int    `json:"cache_hits"`
	ChunksHit   int    `json:"chunks_hit"`
	ChunksPeer  int    `json:"chunks_peer"`
	ChunksOrig  int    `json:"chunks_origin"`
	Refetches   int    `json:"chunk_refetches"`
	PeerBytes   int64  `json:"bytes_from_peers"`
	OriginBytes int64  `json:"bytes_from_origin"`
}

// ChunkStoreStats reports the store's occupancy; zero value when the
// store is disabled.
func (d *Daemon) ChunkStoreStats() ChunkStoreStats {
	st := ChunkStoreStats{
		Host:      d.host.Spec.Name,
		CacheHits: d.CacheHits(), ChunksHit: d.ChunksHit(),
		ChunksPeer: d.ChunksPeer(), ChunksOrig: d.ChunksOrigin(),
		Refetches: d.ChunkRefetches(),
		PeerBytes: d.BytesFromPeers(), OriginBytes: d.BytesFromOrigin(),
	}
	if d.store == nil {
		return st
	}
	st.Chunks = len(d.store.chunks)
	st.Images = len(d.store.images)
	for _, n := range d.store.chunks {
		st.Bytes += n
	}
	return st
}

// heldImages enumerates the store's contents per image for tracker
// seeding, keyed by image name.
func (d *Daemon) heldImages() map[string]heldImage {
	out := make(map[string]heldImage)
	if d.store == nil {
		return out
	}
	for name, si := range d.store.images {
		ids := make([]uint64, 0, len(si.manifest.Chunks))
		for i := range si.manifest.Chunks {
			ids = append(ids, si.manifest.Chunks[i].ID)
		}
		out[name] = heldImage{ids: ids, total: len(ids), full: true}
	}
	return out
}

// storeChunk records one fetched chunk.
func (s *chunkStore) storeChunk(id uint64, bytes int64) { s.chunks[id] = bytes }

// holdsChunk reports whether the store has a chunk.
func (s *chunkStore) holdsChunk(id uint64) bool { _, ok := s.chunks[id]; return ok }

// serveChunk is the daemon's peer-side serve path: a requester asked for
// one chunk. A crashed daemon answers with silence (the requester's
// attempt deadline handles it); a store miss gets a small NACK; a hit
// streams the chunk back. Serves read the host's page cache in this
// model, so no disk process is spawned.
func (d *Daemon) serveChunk(id uint64, destIP simnet.IP, onChunk func(sum uint64, payload int64), onNack func()) {
	if d.crashed {
		return
	}
	if d.store == nil || !d.store.holdsChunk(id) {
		if err := d.net.Transfer(d.HostIP, destIP, chunkNackBytes, onNack); err != nil && onNack != nil {
			onNack()
		}
		return
	}
	c := image.Chunk{ID: id, Bytes: d.store.chunks[id]}
	d.chunkServedCtr.Inc()
	if err := d.net.Transfer(d.HostIP, destIP, image.ChunkWireBytes(&c), func() {
		if onChunk != nil {
			onChunk(id, c.Bytes)
		}
	}); err != nil && onNack != nil {
		onNack()
	}
}

// mix64 is a Murmur3-style finalizer: the deterministic stand-in for a
// random permutation when ordering chunk fetches.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// chunkFetch is one daemon's in-flight chunked fetch of an image, the
// multi-source engine, with a method per stage: fetchManifest; classify,
// which counts held chunks as hits (delta priming) and queues the rest;
// plan and planned, which ask the tracker for sources in batches;
// launch, one chunk attempt; delivered and failed, its outcome, a
// corrupt or lost chunk being re-fetched alone; assemble; and settle,
// which ends the fetch once for every waiter. Concurrent primes of the
// image on the daemon join the running fetch as waiters.
type chunkFetch struct {
	d      *Daemon
	repo   *image.Repository
	name   string
	fanOut int
	parent *telemetry.Span

	// onDone and onErr hold each waiter's callbacks, in arrival order.
	onDone  []func(*image.Image)
	onErr   []func(error)
	settled bool

	// Set by classify: the manifest, the image.fetch span and the
	// per-source tallies it reports.
	m                           *image.Manifest
	span                        *telemetry.Span
	hits, fromPeers, fromOrigin int

	// unplanned chunks wait for a plan RPC (at most one in flight),
	// deferred ones for the replan timer; outstanding counts attempts
	// in flight, attempts each chunk's failed ones.
	unplanned, deferred   []uint64
	planInFlight          bool
	outstanding           int
	attempts              map[uint64]int
	replanTimer, deadline sim.Timer
}

// chunkDelivery is what a chunk attempt receives: the payload's checksum
// and size.
type chunkDelivery struct {
	sum     uint64
	payload int64
}

// fetchManifest runs the manifest fetch under the whole-image download's
// retry discipline. The manifest is tiny, so its attempts get a short
// deadline.
func (f *chunkFetch) fetchManifest() {
	fetchWithRetry(f.d, "manifest fetch", f.name, 10*sim.Second, func(ok func(*image.Manifest), fail func(error)) {
		f.repo.FetchManifest(f.name, f.d.HostIP, ok, fail)
	}, f.classify, func(err error) { f.settle(nil, err) })
}

// classify counts the chunks already held as hits and queues the rest
// for planning in a per-host deterministic permutation, so concurrent
// requesters spread across the chunk space instead of stampeding the
// same prefix. It assembles at once when nothing is missing; otherwise
// it arms the overall deadline — the whole-image attempt deadline,
// sized for the fan-out's repository-link contention — and plans.
func (f *chunkFetch) classify(m *image.Manifest) {
	d := f.d
	f.m = m
	f.span = f.parent.StartChild("image.fetch",
		telemetry.L("image", f.name),
		telemetry.L("chunks", fmt.Sprint(len(m.Chunks))))
	salt := mix64(fnvNameSalt(d.host.Spec.Name))
	for i := range m.Chunks {
		if id := m.Chunks[i].ID; d.store.holdsChunk(id) {
			f.hits++
		} else {
			f.unplanned = append(f.unplanned, id)
		}
	}
	d.chunkHitCtr.Add(int64(f.hits))
	sort.Slice(f.unplanned, func(i, j int) bool {
		return mix64(f.unplanned[i]^salt) < mix64(f.unplanned[j]^salt)
	})
	if len(f.unplanned) == 0 {
		f.assemble()
		return
	}
	f.attempts = make(map[uint64]int, len(f.unplanned))
	overall := d.downloadDeadline(f.repo, f.name, f.fanOut)
	f.deadline = d.net.Kernel().After(overall, func() {
		f.settle(nil, fmt.Errorf("soda: chunked fetch of %q timed out after %v: %w", f.name, overall, image.ErrTransient))
	})
	f.plan()
}

// plan sends the next batch of unplanned chunks to the tracker, unless
// a plan RPC is already in flight or the fetch has settled.
func (f *chunkFetch) plan() {
	if f.settled || f.planInFlight || len(f.unplanned) == 0 {
		return
	}
	ids := f.unplanned[:min(len(f.unplanned), chunkBatchSize)]
	f.unplanned = f.unplanned[len(ids):]
	f.planInFlight = true
	d := f.d
	var plan []chunkPlanEntry
	err := d.net.RPC(d.HostIP, d.coord.IP,
		planReqBase+planReqPerChunk*int64(len(ids)),
		planRespBase+planRespPerChunk*int64(len(ids)),
		func() { plan = d.coord.planChunks(d.coordIdx, ids) },
		func() { f.planned(plan) })
	if err != nil {
		f.planInFlight = false
		f.settle(nil, err)
	}
}

// planned takes the tracker's answer: an attempt per sourced chunk, the
// deferred ones re-queued after chunkReplanDelay, and the next batch.
func (f *chunkFetch) planned(plan []chunkPlanEntry) {
	f.planInFlight = false
	if f.settled {
		return
	}
	for _, e := range plan {
		if e.Src == SrcDefer {
			f.deferred = append(f.deferred, e.ID)
			continue
		}
		f.launch(e)
	}
	if len(f.deferred) > 0 {
		f.replanTimer.Cancel()
		f.replanTimer = f.d.net.Kernel().After(chunkReplanDelay, func() {
			f.unplanned = append(f.unplanned, f.deferred...)
			f.deferred = f.deferred[:0]
			f.plan()
		})
	}
	f.plan()
}

// launch runs one chunk attempt against its planned source — the
// repository, or a peer's serve path, which NACKs a store miss — within
// the daemon's per-source concurrency cap, under chunkAttemptTimeout: a
// silent source (crashed peer, stalled origin) is abandoned at the
// deadline. An attempt that gets its slot after the fetch settled is
// dropped.
func (f *chunkFetch) launch(e chunkPlanEntry) {
	d := f.d
	f.outstanding++
	src := e.IP
	if e.Src == SrcOrigin {
		src = f.repo.IP
	}
	csp := f.span.StartChild("chunk.fetch",
		telemetry.L("chunk", fmt.Sprintf("%016x", e.ID)),
		telemetry.L("source", string(src)))
	d.fetchSet.Fetch(src, func(done func()) {
		if f.settled {
			done()
			csp.EndSpan()
			return
		}
		firstOutcome(d.net.Kernel(), chunkAttemptTimeout, func(ok func(chunkDelivery), fail func(error)) {
			deliver := func(sum uint64, payload int64) { ok(chunkDelivery{sum: sum, payload: payload}) }
			if e.Src == SrcOrigin {
				f.repo.ServeChunk(f.name, e.ID, d.HostIP, deliver, fail)
				return
			}
			peer := d.coord.daemons[e.Src]
			if err := d.net.Transfer(d.HostIP, peer.HostIP, image.ChunkRequestBytes(), func() {
				peer.serveChunk(e.ID, d.HostIP, deliver, func() { fail(errors.New("peer miss")) })
			}); err != nil {
				fail(err)
			}
		}, func(c chunkDelivery) {
			done()
			csp.EndSpan()
			f.delivered(e, src, c)
		}, func(err error) {
			done()
			csp.Fail(err)
			f.failed(e, src, err.Error())
		}, func() {
			done()
			csp.Fail(errors.New("chunk attempt timed out"))
			f.failed(e, src, "timeout")
		})
	})
}

// delivered takes a chunk attempt's delivery. A corrupt one re-queues
// only that chunk; a good one is stored and announced, and the image is
// assembled once nothing is left to fetch.
func (f *chunkFetch) delivered(e chunkPlanEntry, src simnet.IP, c chunkDelivery) {
	if f.settled {
		return
	}
	f.outstanding--
	d := f.d
	if want := f.m.ChunkByID(e.ID); c.sum != e.ID || want == nil || c.payload != want.Bytes {
		d.chunkRefetchCtr.Inc()
		d.flog.Warn("chunk checksum mismatch",
			telemetry.L("image", f.name),
			telemetry.L("chunk", fmt.Sprintf("%016x", e.ID)),
			telemetry.L("source", string(src)))
		if f.attempts[e.ID]++; f.attempts[e.ID] >= chunkMaxAttempts {
			f.settle(nil, fmt.Errorf("soda: chunk %016x of %q corrupt after %d attempts: %w",
				e.ID, f.name, f.attempts[e.ID], image.ErrTransient))
			return
		}
		f.unplanned = append(f.unplanned, e.ID)
		f.plan()
		return
	}
	d.store.storeChunk(e.ID, c.payload)
	if e.Src == SrcOrigin {
		d.chunkOriginCtr.Inc()
		d.bytesOriginCtr.Add(c.payload)
		f.fromOrigin++
	} else {
		d.chunkPeerCtr.Inc()
		d.bytesPeerCtr.Add(c.payload)
		f.fromPeers++
	}
	d.announce(f.name, len(f.m.Chunks), e.ID, false)
	if f.outstanding == 0 && len(f.unplanned) == 0 && len(f.deferred) == 0 && !f.planInFlight && d.storeHasAll(f.m) {
		f.assemble()
		return
	}
	f.plan()
}

// failed takes a chunk attempt that failed or timed out. A chunk out of
// attempts fails the fetch. A dead or unreachable peer's chunk falls
// back to the repository at once instead of risking the tracker
// re-assigning the same peer (the stale assignment clears when the
// chunk is announced, or by TTL); an origin failure re-plans.
func (f *chunkFetch) failed(e chunkPlanEntry, src simnet.IP, why string) {
	if f.settled {
		return
	}
	f.outstanding--
	f.attempts[e.ID]++
	f.d.flog.Warn("chunk fetch failed",
		telemetry.L("image", f.name),
		telemetry.L("chunk", fmt.Sprintf("%016x", e.ID)),
		telemetry.L("source", string(src)),
		telemetry.L("why", why))
	if f.attempts[e.ID] >= chunkMaxAttempts {
		f.settle(nil, fmt.Errorf("soda: chunk %016x of %q failed %d attempts (%s): %w",
			e.ID, f.name, f.attempts[e.ID], why, image.ErrTransient))
		return
	}
	if e.Src != SrcOrigin {
		f.launch(chunkPlanEntry{ID: e.ID, Src: SrcOrigin})
		return
	}
	f.unplanned = append(f.unplanned, e.ID)
	f.plan()
}

// assemble builds the image once every chunk of the manifest is in the
// store, verifies it, and pins it like the whole-image cache did; disk
// exhaustion skips the pin but is not a priming failure.
func (f *chunkFetch) assemble() {
	img := f.m.Materialize()
	if img == nil {
		f.settle(nil, fmt.Errorf("soda: manifest of %q cannot materialize: %w", f.name, image.ErrTransient))
		return
	}
	if !img.Verify() {
		f.settle(nil, fmt.Errorf("soda: assembled image %q failed checksum: %w", f.name, image.ErrTransient))
		return
	}
	d := f.d
	if sizeMB := img.SizeMB(); d.host.UseDisk(sizeMB) == nil {
		d.store.images[f.name] = &storedImage{img: img, manifest: f.m, diskMB: sizeMB}
	}
	d.announce(f.name, len(f.m.Chunks), f.m.Chunks[len(f.m.Chunks)-1].ID, true)
	f.settle(img, nil)
}

// settle ends the fetch with the image or an error: it stops the
// fetch's timers, closes its span and answers every waiter. Attempts
// still in flight are dropped when they report.
func (f *chunkFetch) settle(img *image.Image, err error) {
	f.settled = true
	f.replanTimer.Cancel()
	f.deadline.Cancel()
	if err != nil {
		f.span.Fail(err)
		f.release()
	} else {
		f.span.Annotate("hit", fmt.Sprint(f.hits))
		f.span.Annotate("peer", fmt.Sprint(f.fromPeers))
		f.span.Annotate("origin", fmt.Sprint(f.fromOrigin))
		f.span.EndSpan()
	}
	delete(f.d.fetching, f.name)
	for i, onDone := range f.onDone {
		if err != nil {
			f.onErr[i](err)
		} else {
			onDone(img)
		}
	}
}

// release tells the tracker that a failed fetch gives up every chunk it
// does not hold, in one control transfer the size of a plan request.
// Otherwise their assignments would keep their sources' slots, and
// origin dedup would defer every other requester of those chunks, until
// chunkAssignTTL expired them. A release that is lost (a halted Master)
// or cannot be sent leaves that TTL as the backstop.
func (f *chunkFetch) release() {
	if f.m == nil {
		return
	}
	var ids []uint64
	for i := range f.m.Chunks {
		if id := f.m.Chunks[i].ID; !f.d.store.holdsChunk(id) {
			ids = append(ids, id)
		}
	}
	d, m, idx := f.d, f.d.coord, f.d.coordIdx
	_ = d.net.Transfer(d.HostIP, m.IP, planReqBase+planReqPerChunk*int64(len(ids)), func() {
		m.releaseChunks(idx, ids)
	})
}

// storeHasAll reports whether every chunk of the manifest is held.
func (d *Daemon) storeHasAll(m *image.Manifest) bool {
	for i := range m.Chunks {
		if !d.store.holdsChunk(m.Chunks[i].ID) {
			return false
		}
	}
	return true
}

// announce notifies the tracker (a small control transfer) that this
// daemon now holds a chunk — announce-on-receipt, so the holder set
// grows while a mass prime is still in flight.
func (d *Daemon) announce(imageName string, total int, id uint64, full bool) {
	if d.coord == nil {
		return
	}
	m := d.coord
	idx := d.coordIdx
	_ = d.net.Transfer(d.HostIP, m.IP, announceBytes, func() {
		m.announceChunk(idx, imageName, total, id, full)
	})
}

// fnvNameSalt hashes a host name into the permutation salt.
func fnvNameSalt(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
