package soda

import (
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

// chunkFetchJob is one in-flight chunked image fetch. Concurrent primes
// of the same image on one daemon share a job (no duplicate fetches);
// extra callers just register as waiters.
type chunkFetchJob struct {
	waiters []chunkWaiter
	settled bool
}

type chunkWaiter struct {
	onDone func(*image.Image)
	onErr  func(error)
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
	d.fetching = make(map[string]*chunkFetchJob)
}

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
		CacheHits: d.CacheHits, ChunksHit: d.ChunksHit,
		ChunksPeer: d.ChunksPeer, ChunksOrig: d.ChunksOrigin,
		Refetches: d.ChunkRefetches,
		PeerBytes: d.BytesFromPeers, OriginBytes: d.BytesFromOrigin,
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
	d.ChunksServed++
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

// fetchChunked is the multi-source chunk fetch engine: fetch the
// manifest, skip chunks already held (delta priming), then drain the
// rest through tracker-planned sources — peers preferred, origin
// deduplicated, corrupt or lost chunks individually re-fetched.
// fanOut scales the overall deadline for flash-crowd primes.
func (d *Daemon) fetchChunked(repo *image.Repository, name string, fanOut int, parent *telemetry.Span, onDone func(*image.Image), onErr func(error)) {
	job, running := d.fetching[name]
	if running {
		job.waiters = append(job.waiters, chunkWaiter{onDone: onDone, onErr: onErr})
		return
	}
	job = &chunkFetchJob{waiters: []chunkWaiter{{onDone: onDone, onErr: onErr}}}
	d.fetching[name] = job

	k := d.net.Kernel()
	finish := func(img *image.Image, err error) {
		if job.settled {
			return
		}
		job.settled = true
		delete(d.fetching, name)
		for _, w := range job.waiters {
			if err != nil {
				if w.onErr != nil {
					w.onErr(err)
				}
			} else if w.onDone != nil {
				w.onDone(img)
			}
		}
	}

	// The manifest is tiny, so its attempts get a short deadline.
	fetchWithRetry(d, "manifest fetch", name, 10*sim.Second, func(ok func(*image.Manifest), fail func(error)) {
		repo.FetchManifest(name, d.HostIP, ok, fail)
	}, func(m *image.Manifest) {
		if job.settled {
			return
		}
		sp := parent.StartChild("image.fetch",
			telemetry.L("image", name),
			telemetry.L("chunks", fmt.Sprint(len(m.Chunks))))

		// Classify: held chunks are hits (the delta-prime payoff);
		// the rest queue for planning in a per-host deterministic
		// permutation so concurrent requesters spread across the chunk
		// space instead of stampeding the same prefix.
		salt := mix64(fnvNameSalt(d.host.Spec.Name))
		var needed []uint64
		var hitChunks int
		for i := range m.Chunks {
			c := &m.Chunks[i]
			if d.store.holdsChunk(c.ID) {
				hitChunks++
				continue
			}
			needed = append(needed, c.ID)
		}
		d.ChunksHit += hitChunks
		d.chunkHitCtr.Add(int64(hitChunks))
		sort.Slice(needed, func(i, j int) bool {
			return mix64(needed[i]^salt) < mix64(needed[j]^salt)
		})

		var (
			unplanned    = needed
			planInFlight bool
			outstanding  int
			deferred     []uint64
			attempts     = make(map[uint64]int, len(needed))
			peerGot      int
			originGot    int
			replanTimer  sim.Timer
			deadline     sim.Timer
			maybePlan    func()
		)

		settleJob := func(img *image.Image, err error) {
			replanTimer.Cancel()
			deadline.Cancel()
			if err != nil {
				sp.Fail(err)
			} else {
				sp.Annotate("hit", fmt.Sprint(hitChunks))
				sp.Annotate("peer", fmt.Sprint(peerGot))
				sp.Annotate("origin", fmt.Sprint(originGot))
				sp.EndSpan()
			}
			finish(img, err)
		}

		complete := func() {
			// Assemble: every chunk of the manifest is in the store.
			img := m.Materialize()
			if img == nil {
				settleJob(nil, fmt.Errorf("soda: manifest of %q cannot materialize: %w", name, image.ErrTransient))
				return
			}
			if !img.Verify() {
				settleJob(nil, fmt.Errorf("soda: assembled image %q failed checksum: %w", name, image.ErrTransient))
				return
			}
			// Pin the assembled master like the legacy cache did; disk
			// exhaustion skips the pin but is not a priming failure.
			if _, already := d.store.images[name]; !already {
				sizeMB := img.SizeMB()
				if err := d.host.UseDisk(sizeMB); err == nil {
					d.store.images[name] = &storedImage{img: img, manifest: m, diskMB: sizeMB}
				}
			}
			d.announce(name, len(m.Chunks), m.Chunks[len(m.Chunks)-1].ID, true)
			settleJob(img, nil)
		}

		if len(needed) == 0 {
			complete()
			return
		}

		// Overall deadline: the whole-image attempt deadline, sized for
		// the fan-out's repository-link contention.
		overall := d.downloadDeadline(repo, name, fanOut)
		deadline = k.After(overall, func() {
			if job.settled {
				return
			}
			settleJob(nil, fmt.Errorf("soda: chunked fetch of %q timed out after %v: %w", name, overall, image.ErrTransient))
		})

		chunkDone := func(id uint64, from int, ip simnet.IP, sum uint64, payload int64) {
			if job.settled {
				return
			}
			outstanding--
			c := m.ChunkByID(id)
			if sum != id || c == nil || payload != c.Bytes {
				// Corrupt delivery: re-fetch only this chunk.
				d.ChunkRefetches++
				d.chunkRefetchCtr.Inc()
				d.flog.Warn("chunk checksum mismatch",
					telemetry.L("image", name),
					telemetry.L("chunk", fmt.Sprintf("%016x", id)),
					telemetry.L("source", string(ip)))
				attempts[id]++
				if attempts[id] >= chunkMaxAttempts {
					settleJob(nil, fmt.Errorf("soda: chunk %016x of %q corrupt after %d attempts: %w",
						id, name, attempts[id], image.ErrTransient))
					return
				}
				unplanned = append(unplanned, id)
				maybePlan()
				return
			}
			d.store.storeChunk(id, payload)
			if from == SrcOrigin {
				d.ChunksOrigin++
				d.chunkOriginCtr.Inc()
				d.BytesFromOrigin += payload
				d.bytesOriginCtr.Add(payload)
				originGot++
			} else {
				d.ChunksPeer++
				d.chunkPeerCtr.Inc()
				d.BytesFromPeers += payload
				d.bytesPeerCtr.Add(payload)
				peerGot++
			}
			d.announce(name, len(m.Chunks), id, false)
			if outstanding == 0 && len(unplanned) == 0 && len(deferred) == 0 && !planInFlight {
				if d.storeHasAll(m) {
					complete()
					return
				}
			}
			maybePlan()
		}

		var launch func(e chunkPlanEntry)

		chunkFailed := func(id uint64, from int, why string, ip simnet.IP) {
			if job.settled {
				return
			}
			outstanding--
			attempts[id]++
			d.flog.Warn("chunk fetch failed",
				telemetry.L("image", name),
				telemetry.L("chunk", fmt.Sprintf("%016x", id)),
				telemetry.L("source", string(ip)),
				telemetry.L("why", why))
			if attempts[id] >= chunkMaxAttempts {
				settleJob(nil, fmt.Errorf("soda: chunk %016x of %q failed %d attempts (%s): %w",
					id, name, attempts[id], why, image.ErrTransient))
				return
			}
			if from != SrcOrigin {
				// A dead or unreachable peer: fall back to the repository
				// for this one chunk instead of risking the tracker
				// re-assigning the same peer. The stale assignment clears
				// when the chunk is announced (or by TTL).
				launch(chunkPlanEntry{ID: id, Src: SrcOrigin})
				return
			}
			unplanned = append(unplanned, id)
			maybePlan()
		}

		launch = func(e chunkPlanEntry) {
			outstanding++
			srcIP := e.IP
			if e.Src == SrcOrigin {
				srcIP = repo.IP
			}
			csp := sp.StartChild("chunk.fetch",
				telemetry.L("chunk", fmt.Sprintf("%016x", e.ID)),
				telemetry.L("source", string(srcIP)))
			d.fetchSet.Fetch(srcIP, func(done func()) {
				if job.settled {
					done()
					csp.EndSpan()
					return
				}
				settled := false
				var timer sim.Timer
				settle := func() bool {
					if settled {
						return false
					}
					settled = true
					timer.Cancel()
					done()
					return true
				}
				timer = k.After(chunkAttemptTimeout, func() {
					if !settled {
						settled = true
						done()
						csp.Fail(fmt.Errorf("chunk attempt timed out"))
						chunkFailed(e.ID, e.Src, "timeout", srcIP)
					}
				})
				deliver := func(sum uint64, payload int64) {
					if !settle() {
						return
					}
					csp.EndSpan()
					chunkDone(e.ID, e.Src, srcIP, sum, payload)
				}
				nack := func(why string) func() {
					return func() {
						if !settle() {
							return
						}
						csp.Fail(fmt.Errorf("%s", why))
						chunkFailed(e.ID, e.Src, why, srcIP)
					}
				}
				if e.Src == SrcOrigin {
					repo.ServeChunk(name, e.ID, d.HostIP, deliver, func(err error) { nack(err.Error())() })
					return
				}
				peer := d.coord.daemons[e.Src]
				err := d.net.Transfer(d.HostIP, peer.HostIP, image.ChunkRequestBytes(), func() {
					peer.serveChunk(e.ID, d.HostIP, deliver, nack("peer miss"))
				})
				if err != nil {
					nack(err.Error())()
				}
			})
		}

		scheduleReplan := func() {
			if len(deferred) == 0 {
				return
			}
			replanTimer.Cancel()
			replanTimer = k.After(chunkReplanDelay, func() {
				if job.settled {
					return
				}
				unplanned = append(unplanned, deferred...)
				deferred = deferred[:0]
				maybePlan()
			})
		}

		maybePlan = func() {
			if job.settled || planInFlight || len(unplanned) == 0 {
				return
			}
			batch := unplanned
			if len(batch) > chunkBatchSize {
				batch = batch[:chunkBatchSize]
			}
			rest := unplanned[len(batch):]
			ids := append([]uint64(nil), batch...)
			unplanned = append([]uint64(nil), rest...)
			planInFlight = true
			var plan []chunkPlanEntry
			err := d.net.RPC(d.HostIP, d.coord.IP,
				planReqBase+planReqPerChunk*int64(len(ids)),
				planRespBase+planRespPerChunk*int64(len(ids)),
				func() {
					plan = d.coord.planChunks(d.coordIdx, ids)
				},
				func() {
					planInFlight = false
					if job.settled {
						return
					}
					for _, e := range plan {
						if e.Src == SrcDefer {
							deferred = append(deferred, e.ID)
							continue
						}
						launch(e)
					}
					scheduleReplan()
					maybePlan()
				})
			if err != nil {
				planInFlight = false
				settleJob(nil, err)
			}
		}
		maybePlan()
	}, func(err error) {
		finish(nil, err)
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
