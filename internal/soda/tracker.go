package soda

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Chunk-distribution plan sources. A plan entry's Src field is either a
// daemon index (≥ 0), the repository origin, or a deferral — the tracker
// found only saturated sources and the requester should ask again after
// a short delay.
const (
	// SrcOrigin directs the fetch at the image repository.
	SrcOrigin = -1
	// SrcDefer tells the requester to re-plan the chunk later.
	SrcDefer = -2
)

// ChunkDistConfig tunes the Master's tracker role in cooperative image
// distribution.
type ChunkDistConfig struct {
	// SourceCap bounds how many chunk transfers the tracker will aim at
	// one peer daemon at a time (across all requesters).
	SourceCap int
	// OriginCap bounds concurrent chunk transfers from the repository —
	// the budget mass priming is trying to stop monopolising.
	OriginCap int
	// AssignTTL expires an assignment whose requester never announced
	// the chunk (it crashed or gave up), releasing the source's slot.
	AssignTTL sim.Duration
}

func (c ChunkDistConfig) withDefaults() ChunkDistConfig {
	if c.SourceCap <= 0 {
		c.SourceCap = 4
	}
	if c.OriginCap <= 0 {
		c.OriginCap = 8
	}
	if c.AssignTTL <= 0 {
		c.AssignTTL = 60 * sim.Second
	}
	return c
}

// chunkPlanEntry is one line of a source plan: fetch chunk ID from Src
// (daemon index, SrcOrigin, or SrcDefer). IP is the source host address
// for peer entries.
type chunkPlanEntry struct {
	ID  uint64
	Src int
	IP  simnet.IP
}

// assignKey identifies one outstanding chunk assignment.
type assignKey struct {
	id        uint64
	requester int
}

type assignment struct {
	src     int
	expires sim.Time
}

// imageHolders is the tracker's per-image occupancy index, feeding the
// /images endpoint.
type imageHolders struct {
	chunkTotal int
	perDaemon  map[int]int
	full       map[int]bool
}

// chunkTracker is the Master's tracker state for cooperative image
// distribution: which daemon holds which chunk, which assignments are in
// flight, and how loaded each source is.
type chunkTracker struct {
	cfg ChunkDistConfig

	// holders maps chunk ID → sorted daemon indexes that hold it.
	holders map[uint64][]int
	// assigned tracks handed-out plan entries until the requester
	// announces the chunk or the assignment expires.
	assigned map[assignKey]assignment
	// outstanding counts live assignments per source (SrcOrigin for the
	// repository).
	outstanding map[int]int
	// originInFlight dedups origin fetches: while any requester is
	// fetching a chunk from the repository, everyone else defers and
	// picks it up from the first holder instead.
	originInFlight map[uint64]int
	// rr spreads peer picks across a chunk's holder set.
	rr map[uint64]int
	// images indexes holder occupancy per image name.
	images map[string]*imageHolders
}

func newChunkTracker(cfg ChunkDistConfig) *chunkTracker {
	return &chunkTracker{
		cfg:            cfg.withDefaults(),
		holders:        make(map[uint64][]int),
		assigned:       make(map[assignKey]assignment),
		outstanding:    make(map[int]int),
		originInFlight: make(map[uint64]int),
		rr:             make(map[uint64]int),
		images:         make(map[string]*imageHolders),
	}
}

// EnableChunkDistribution turns the Master into the tracker of a
// cooperative, content-addressed image distribution mesh: every daemon
// gains a chunk store and a serve path, and primes become multi-source
// chunk fetches planned by the Master. Idempotent; a zero config takes
// the defaults.
func (m *Master) EnableChunkDistribution(cfg ChunkDistConfig) {
	if m.chunkDist != nil {
		return
	}
	m.chunkDist = newChunkTracker(cfg)
	for i, d := range m.daemons {
		d.enableChunkStore()
		d.attachChunkCoordinator(m, i)
	}
	m.flog.Info("chunk distribution enabled",
		telemetry.L("source_cap", itoa(m.chunkDist.cfg.SourceCap)),
		telemetry.L("origin_cap", itoa(m.chunkDist.cfg.OriginCap)))
}

// ChunkDistributionEnabled reports whether the Master is acting as a
// chunk tracker.
func (m *Master) ChunkDistributionEnabled() bool { return m.chunkDist != nil }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// daemonAlive reports whether daemon i can serve chunks right now:
// not crash-stopped and not confirmed dead by the failure detector.
func (m *Master) daemonAlive(i int) bool {
	if m.daemons[i].Crashed() {
		return false
	}
	if m.health != nil && m.health.hosts[i].state == HostDead {
		return false
	}
	return true
}

// planChunks builds a source plan for one requester's batch. Runs at the
// Master when the daemon's plan RPC arrives. For each chunk: prefer an
// unsaturated live peer holder; when holders exist but all are busy,
// defer (never fall back to origin while a peer can serve); with no
// holder, assign the origin exactly once per chunk and defer everyone
// else until the first fetcher announces.
func (m *Master) planChunks(requester int, imageName string, total int, ids []uint64) []chunkPlanEntry {
	t := m.chunkDist
	if m.halted {
		// A down Master plans nothing; the requester retries after its
		// deferral delay and reaches whichever Master leads by then.
		plan := make([]chunkPlanEntry, 0, len(ids))
		for _, id := range ids {
			plan = append(plan, chunkPlanEntry{ID: id, Src: SrcDefer})
		}
		return plan
	}
	now := m.net.Kernel().Now()
	t.expire(now)
	t.imageIndex(imageName, total)

	plan := make([]chunkPlanEntry, 0, len(ids))
	for _, id := range ids {
		// A re-plan supersedes the requester's previous assignment for
		// this chunk (its fetch failed or timed out).
		t.clearAssignment(assignKey{id: id, requester: requester})

		src := SrcDefer
		var ip simnet.IP
		candidates := t.liveHolders(m, id, requester)
		if len(candidates) > 0 {
			for range candidates {
				pick := candidates[t.rr[id]%len(candidates)]
				t.rr[id]++
				if t.outstanding[pick] < t.cfg.SourceCap {
					src = pick
					ip = m.daemons[pick].HostIP
					break
				}
			}
			// All holders saturated → SrcDefer: load spreads better by
			// waiting a beat than by stampeding the origin.
		} else if t.originInFlight[id] == 0 && t.outstanding[SrcOrigin] < t.cfg.OriginCap {
			src = SrcOrigin
		}
		if src != SrcDefer {
			t.assigned[assignKey{id: id, requester: requester}] = assignment{src: src, expires: now.Add(t.cfg.AssignTTL)}
			t.outstanding[src]++
			if src == SrcOrigin {
				t.originInFlight[id]++
			}
		}
		plan = append(plan, chunkPlanEntry{ID: id, Src: src, IP: ip})
	}
	return plan
}

// announceChunk records that a daemon now holds a chunk, releasing its
// assignment. full marks the image completely assembled on that host.
func (m *Master) announceChunk(holder int, imageName string, total int, id uint64, full bool) {
	if m.halted {
		return // lost announce; the holder re-reports during resync
	}
	m.chunkDist.clearAssignment(assignKey{id: id, requester: holder})
	m.trackerAnnounce(holder, imageName, total, id, full)
}

// trackerAnnounce indexes one held chunk and journals the mutation when
// it changes tracker state (duplicate announces are no-ops on both the
// index and the journal, keeping replay deterministic).
func (m *Master) trackerAnnounce(holder int, imageName string, total int, id uint64, full bool) {
	t := m.chunkDist
	if t.addHolder(imageName, id, holder, total) {
		m.journal("chunk-announce", jChunk{Image: imageName, Chunk: id, Daemon: holder, Total: total})
	}
	if full {
		m.trackerFull(holder, imageName, total)
	}
}

// trackerFull marks an image fully assembled on a host, journaling the
// transition once.
func (m *Master) trackerFull(holder int, imageName string, total int) {
	if m.chunkDist.markFull(imageName, holder, total) {
		m.journal("chunk-full", jChunk{Image: imageName, Daemon: holder, Total: total})
	}
}

// forgetHolder withdraws a daemon from every holder set — its chunk
// store was dropped.
func (m *Master) forgetHolder(holder int) {
	t := m.chunkDist
	for id, hs := range t.holders {
		for i, h := range hs {
			if h == holder {
				t.holders[id] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
		if len(t.holders[id]) == 0 {
			delete(t.holders, id)
		}
	}
	for _, ih := range t.images {
		delete(ih.perDaemon, holder)
		delete(ih.full, holder)
	}
	m.journal("chunk-forget", jChunkRef{Daemon: holder})
}

// liveHolders returns the chunk's holders that are alive and not the
// requester, in sorted index order.
func (t *chunkTracker) liveHolders(m *Master, id uint64, requester int) []int {
	hs := t.holders[id]
	out := make([]int, 0, len(hs))
	for _, h := range hs {
		if h != requester && m.daemonAlive(h) {
			out = append(out, h)
		}
	}
	return out
}

// expire lazily prunes assignments whose requester never announced.
// Effects are commutative counter decrements, so map iteration order
// does not influence the resulting state.
func (t *chunkTracker) expire(now sim.Time) {
	for k, a := range t.assigned {
		if now.Sub(a.expires) >= 0 {
			t.clearAssignment(k)
		}
	}
}

func (t *chunkTracker) clearAssignment(k assignKey) {
	a, ok := t.assigned[k]
	if !ok {
		return
	}
	delete(t.assigned, k)
	t.outstanding[a.src]--
	if t.outstanding[a.src] <= 0 {
		delete(t.outstanding, a.src)
	}
	if a.src == SrcOrigin {
		t.originInFlight[k.id]--
		if t.originInFlight[k.id] <= 0 {
			delete(t.originInFlight, k.id)
		}
	}
}

func (t *chunkTracker) imageIndex(name string, total int) *imageHolders {
	ih, ok := t.images[name]
	if !ok {
		ih = &imageHolders{perDaemon: make(map[int]int), full: make(map[int]bool)}
		t.images[name] = ih
	}
	if total > ih.chunkTotal {
		ih.chunkTotal = total
	}
	return ih
}

// addHolder indexes holder for chunk id, reporting whether this was a
// new entry (duplicates keep per-image counts consistent by no-op'ing).
func (t *chunkTracker) addHolder(imageName string, id uint64, holder, total int) bool {
	hs := t.holders[id]
	pos := sort.SearchInts(hs, holder)
	if pos < len(hs) && hs[pos] == holder {
		return false
	}
	hs = append(hs, 0)
	copy(hs[pos+1:], hs[pos:])
	hs[pos] = holder
	t.holders[id] = hs
	t.imageIndex(imageName, total).perDaemon[holder]++
	return true
}

// markFull reports whether the holder newly transitioned to full.
func (t *chunkTracker) markFull(imageName string, holder, total int) bool {
	ih := t.imageIndex(imageName, total)
	if ih.full[holder] {
		return false
	}
	ih.full[holder] = true
	return true
}

// ImageHolderView is one image's holder map as reported by the tracker.
type ImageHolderView struct {
	Image       string `json:"image"`
	ChunkTotal  int    `json:"chunk_total"`
	FullHolders int    `json:"full_holders"`
	// PerHost maps host name → chunks held.
	PerHost map[string]int `json:"per_host"`
}

// ImageHolders returns the tracker's holder map, sorted by image name.
// Nil when chunk distribution is disabled.
func (m *Master) ImageHolders() []ImageHolderView {
	if m.chunkDist == nil {
		return nil
	}
	t := m.chunkDist
	names := make([]string, 0, len(t.images))
	for n := range t.images {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ImageHolderView, 0, len(names))
	for _, n := range names {
		ih := t.images[n]
		v := ImageHolderView{Image: n, ChunkTotal: ih.chunkTotal, FullHolders: len(ih.full), PerHost: make(map[string]int, len(ih.perDaemon))}
		for di, cnt := range ih.perDaemon {
			v.PerHost[m.daemons[di].Host().Spec.Name] = cnt
		}
		out = append(out, v)
	}
	return out
}
