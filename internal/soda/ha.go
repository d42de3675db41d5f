package soda

import (
	"fmt"

	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// Control-plane high availability. A Cluster pairs the primary Master
// with a warm standby behind a shared write-ahead journal:
//
//   - the leader commits every state change as a journal record before
//     moving on, and beats to the standby over the modelled LAN;
//   - the standby tails the journal stream (for lag accounting) and,
//     when the leader falls silent for 4 beat periods, takes over: it
//     bumps the epoch, replays the durable journal into the logical
//     state, and re-registers every live daemon;
//   - daemons fence commands carrying a stale epoch (a revived or
//     partitioned old leader cannot mutate anything), and answer the
//     new leader's epoch announcement with a resynchronization report —
//     live guests, hosted switches, held image chunks — after a seeded,
//     jittered delay so re-registration doesn't arrive as a burst;
//   - the data plane keeps serving throughout: service switches and
//     guests live on the hosts, and the new leader adopts the live
//     switch objects from the daemon reports, so the control-plane
//     handover drops no client requests.
//
// The design is single-failover: the standby that takes over gets no
// standby of its own. That is enough to reproduce the protocol — the
// journal, the fencing, and the replayed-state equivalence — end to end.

// HAConfig tunes the cluster's lease and resynchronization timing. The
// standby takes over after 4 beat periods of silence, checked every half
// period.
type HAConfig struct {
	// BeatEvery is the leader → standby liveness beat period.
	BeatEvery sim.Duration
	// ResyncDelay is the base delay before a daemon answers the new
	// leader's epoch announcement; each daemon jitters it (±50%) from
	// its own seeded stream so the reports spread out.
	ResyncDelay sim.Duration
	// SnapshotEvery compacts the journal once this many records have
	// accumulated since the last snapshot (default 64). Snapshots are
	// deferred while any service is mid-priming.
	SnapshotEvery int
}

func (c HAConfig) withDefaults() HAConfig {
	if c.BeatEvery <= 0 {
		c.BeatEvery = 250 * sim.Millisecond
	}
	if c.ResyncDelay <= 0 {
		c.ResyncDelay = 100 * sim.Millisecond
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
	return c
}

// FailoverRecord describes one completed takeover.
type FailoverRecord struct {
	// At is when resynchronization completed.
	At sim.Time `json:"at"`
	// Epoch is the new leadership epoch.
	Epoch uint64 `json:"epoch"`
	// MTTR is last-beat-received to resynchronization-complete.
	MTTR sim.Duration `json:"mttr"`
	// Resynced counts daemons that re-registered.
	Resynced int `json:"resynced"`
	// Replayed counts journal records replayed into the new leader.
	Replayed int `json:"replayed"`
	// Truncated reports whether replay stopped at a torn or corrupt
	// frame (the surviving prefix was still applied).
	Truncated bool `json:"truncated,omitempty"`
}

// Cluster is the HA pair: primary, warm standby, shared journal.
type Cluster struct {
	k   *sim.Kernel
	net *simnet.Network
	cfg HAConfig
	log *journal.Log

	primary, standby *Master
	leader           *Master

	// specs caches the live service specs: Behavior and SwitchPolicy are
	// functions and cannot be journaled, so a rebuilt service grafts them
	// back from here.
	specs map[string]ServiceSpec

	lastBeat   sim.Time
	standbySeq uint64
	takingOver bool
	completed  bool
	expect     int
	received   int

	failovers []FailoverRecord

	failoverCtr *telemetry.Counter
	mttrHist    *telemetry.Histogram
	epochGauge  *telemetry.Gauge
}

// NewCluster arms high availability over a primary Master and a freshly
// built standby sharing the same daemon table. Like every attach, it
// comes once and before the primary's first service; the journal opens
// with a snapshot of the primary's state.
func NewCluster(net *simnet.Network, primary, standby *Master, cfg HAConfig) (*Cluster, error) {
	if primary == nil || standby == nil || primary == standby {
		return nil, fmt.Errorf("soda: cluster needs distinct primary and standby masters")
	}
	primary.mustAttach("NewCluster", primary.cluster != nil)
	standby.mustAttach("NewCluster", standby.cluster != nil)
	if len(primary.daemons) != len(standby.daemons) {
		return nil, fmt.Errorf("soda: primary and standby daemon tables differ")
	}
	k := net.Kernel()
	c := &Cluster{
		k:       k,
		net:     net,
		cfg:     cfg.withDefaults(),
		log:     journal.New(),
		primary: primary,
		standby: standby,
		leader:  primary,
		specs:   make(map[string]ServiceSpec),
	}
	primary.cluster = c
	standby.cluster = c
	// The journal opens with a snapshot of the primary's state at epoch 1.
	c.log.SetEpoch(1)
	primary.state.apply("epoch", jEpoch{Epoch: 1})
	primary.jlog = c.log
	primary.snapEvery = c.cfg.SnapshotEvery
	now := k.Now()
	c.lastBeat = now
	c.log.Snapshot(int64(now), primary.state)
	c.standbySeq = c.log.Seq()

	// The journal stream: every appended frame crosses the LAN to the
	// standby so lag is observable (and honest under partitions). The
	// durable image itself is cluster-owned stable storage — takeover
	// replays the full log, not the streamed copy.
	c.log.OnAppend(func(rec journal.Record) {
		if c.leader != c.primary {
			c.standbySeq = rec.Seq
			return
		}
		_ = net.Transfer(c.primary.IP, c.standby.IP, 64, func() {
			if rec.Seq > c.standbySeq {
				c.standbySeq = rec.Seq
			}
		})
	})

	// Leader beats standby; the standby evaluates the silence deadline.
	k.Every(c.cfg.BeatEvery, func() {
		if c.leader != c.primary || c.primary.halted {
			return
		}
		_ = net.Transfer(c.primary.IP, c.standby.IP, 32, func() {
			c.lastBeat = k.Now()
		})
	})
	k.Every(c.cfg.BeatEvery/2, func() {
		if c.leader != c.primary || c.takingOver {
			return
		}
		if k.Now().Sub(c.lastBeat) >= 4*c.cfg.BeatEvery {
			c.takeover()
		}
	})
	return c, nil
}

// Instrument attaches the cluster's failover counter, MTTR histogram,
// epoch gauge, and journal odometers to the registry.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	c.failoverCtr = reg.Counter("soda_failovers_total")
	c.epochGauge = reg.Gauge("soda_ha_epoch")
	c.epochGauge.Set(float64(c.log.Epoch()))
	if reg != nil {
		c.mttrHist = reg.Histogram("soda_failover_mttr_seconds", nil)
	}
	c.log.Instrument(reg)
}

// Leader returns the master currently holding the lease.
func (c *Cluster) Leader() *Master { return c.leader }

// Standby returns the warm-standby master (after a failover it is the
// leader).
func (c *Cluster) Standby() *Master { return c.standby }

// Epoch returns the current leadership epoch.
func (c *Cluster) Epoch() uint64 { return c.log.Epoch() }

// Journal returns the cluster's shared write-ahead log.
func (c *Cluster) Journal() *journal.Log { return c.log }

// Role names a master's position: "leader" or "standby".
func (c *Cluster) Role(m *Master) string {
	if m == c.leader {
		return "leader"
	}
	return "standby"
}

// JournalLag is how many records the standby's streamed copy trails the
// durable log — the /healthz readiness signal.
func (c *Cluster) JournalLag() uint64 {
	if c.log.Seq() < c.standbySeq {
		return 0
	}
	return c.log.Seq() - c.standbySeq
}

// Failovers returns the completed-takeover history.
func (c *Cluster) Failovers() []FailoverRecord {
	return append([]FailoverRecord(nil), c.failovers...)
}

// HaltLeader crash-stops the current leader (the master-crash chaos
// fault): it stops beating, journaling, and answering. Its memory is
// "lost" — only the journal survives.
func (c *Cluster) HaltLeader() { c.leader.Halt() }

// cacheSpec retains a service's live spec for post-failover rebuilds.
func (c *Cluster) cacheSpec(spec ServiceSpec) {
	c.specs[spec.Name] = spec
}

// takeover is the standby's leadership assumption: replay the durable
// log into the logical state, fence the journal away from the old
// leader, move the subsystem attachments over, commit the new epoch,
// rebuild the live service handles, and fan the epoch announcement out
// to the daemons.
func (c *Cluster) takeover() {
	c.takingOver = true
	c.completed = false
	ol, nl := c.leader, c.standby
	now := c.k.Now()
	silence := now.Sub(c.lastBeat)
	newEpoch := c.log.Epoch() + 1

	// Replay the durable journal first: this is exactly the state the
	// old leader is guaranteed to have persisted.
	recs, rep := journal.Replay(c.log.Bytes())
	st := replayState(recs)

	// Fence the old leader: it loses the journal (a revived stale leader
	// cannot append), the failure detector, and the tracker role. The
	// log advances to the new epoch.
	ol.jlog = nil
	oldHealth := ol.health
	ol.health = nil
	oldTracker := ol.chunkDist
	ol.chunkDist = nil
	c.log.SetEpoch(newEpoch)
	nl.jlog = c.log
	nl.snapEvery = c.cfg.SnapshotEvery
	nl.halted = false

	// Move the subsystem attachments. The switches and guests never
	// stopped — only the coordinator's memory is being reconstructed.
	nl.observers = append(nl.observers, ol.observers...)
	ol.observers = nil
	nl.acct = ol.acct
	nl.reqTraces = ol.reqTraces
	nl.Strategy = ol.Strategy
	nl.Factor = ol.Factor
	if nl.tracer == nil {
		nl.tracer = ol.tracer
	}
	if nl.flog == nil {
		nl.flog = ol.flog
	}
	c.leader = nl
	if c.epochGauge != nil {
		c.epochGauge.Set(float64(newEpoch))
	}

	// The epoch record drops the services the old leader was still
	// priming; they are rejected below, and their half-primed nodes are
	// torn down as orphans during resynchronization.
	var lost []string
	for _, js := range st.Services {
		if ServiceState(js.State) != Active {
			lost = append(lost, js.Name)
		}
	}
	nl.state = st
	nl.commit("epoch", jEpoch{Epoch: newEpoch})
	c.rebuild(nl)
	nl.emit(EventMasterDown, 0, "", "",
		fmt.Sprintf("leader silent %v, standby taking over at epoch %d", silence, newEpoch))
	for _, name := range lost {
		nl.rejectedCtr.Inc()
		nl.commit("service-rejected", jName{Service: name})
		nl.emit(EventRejected, 0, name, "", "lost mid-priming by control-plane failover")
	}

	// The failure detector moves with its state, but every non-dead
	// host's deadline restarts now: the takeover window must not be
	// mistaken for host silence.
	if oldHealth != nil {
		for i := range oldHealth.hosts {
			if oldHealth.hosts[i].state != HostDead {
				oldHealth.hosts[i].lastBeat = now
			}
		}
		nl.health = oldHealth
		c.k.Every(oldHealth.cfg.checkEvery(), nl.checkLiveness)
	}
	if oldTracker != nil {
		// A fresh tracker: the holder map is rebuilt purely from the
		// daemons' resynchronization announces — and must come back
		// identical to the journaled pre-crash occupancy.
		nl.chunkDist = newChunkTracker()
		nl.commit("chunk-reset", struct{}{})
	}

	c.resyncDaemons(nl, newEpoch, rep)
}

// rebuild gives every service in the new leader's state a live handle.
// Guests and switches stay unfilled until the daemons' resynchronization
// reports arrive; autoscaler taps start fresh.
func (c *Cluster) rebuild(nl *Master) {
	nl.services = make(map[string]*Service)
	nl.autos = make(map[string]*autoscaler)
	for _, js := range nl.state.Services {
		spec := js.logicalSpec()
		if cached, ok := c.specs[js.Name]; ok {
			spec.Behavior = cached.Behavior
			spec.SwitchPolicy = cached.SwitchPolicy
		}
		svc := &Service{
			Spec:       spec,
			Config:     svcswitch.NewConfigFile(js.Name),
			m:          nl,
			priming:    make(map[string]int),
			nextNodeID: js.NextNodeID,
		}
		for _, n := range orderHomeFirst(js.Nodes, js.Home) {
			svc.Nodes = append(svc.Nodes, NodeInfo{
				NodeName: n.Name,
				HostName: n.Host,
				IP:       simnet.IP(n.IP),
				Port:     n.Port,
				Capacity: n.Capacity,
				UID:      n.UID,
			})
		}
		nl.services[js.Name] = svc
	}
	nl.activeServices.Set(float64(len(nl.services)))
}

// orderHomeFirst returns the journaled nodes with the switch's home node
// moved to the front — the live Service invariant (§3.4: the switch is
// co-located in the first node).
func orderHomeFirst(nodes []jNode, home string) []jNode {
	if home == "" {
		return nodes
	}
	out := make([]jNode, 0, len(nodes))
	for _, n := range nodes {
		if n.Name == home {
			out = append(out, n)
		}
	}
	for _, n := range nodes {
		if n.Name != home {
			out = append(out, n)
		}
	}
	return out
}

// resyncDaemons fences every live daemon at the new epoch and collects
// their jitter-spread resynchronization reports.
func (c *Cluster) resyncDaemons(nl *Master, epoch uint64, rep journal.ReplayReport) {
	c.expect = 0
	c.received = 0
	for i, d := range nl.daemons {
		if d.Crashed() {
			continue
		}
		if nl.health != nil && nl.health.hosts[i].state == HostDead {
			continue
		}
		c.expect++
		i, d := i, d
		_ = c.net.Transfer(nl.IP, d.HostIP, 256, func() {
			d.ObserveEpoch(epoch, nl)
			delay := d.beatRNG.JitterDuration(c.cfg.ResyncDelay, 0.5)
			c.k.After(delay, func() {
				if d.Crashed() {
					c.expect--
					c.maybeComplete(nl, rep)
					return
				}
				report := d.resyncReport()
				size := int64(256 + 128*len(report.Nodes) + 64*len(report.Switches) + 16*len(report.Chunks))
				_ = c.net.Transfer(d.HostIP, nl.IP, size, func() {
					c.daemonResynced(nl, i, report, rep)
				})
			})
		})
	}
	c.maybeComplete(nl, rep)
}

// daemonResynced folds one daemon's report into the new leader: live
// guests fill the rebuilt node records, hosted switches are adopted (the
// very routing objects clients already hold), orphaned nodes are torn
// down under the new epoch, and held chunks re-announce into the fresh
// tracker.
func (c *Cluster) daemonResynced(nl *Master, di int, report ResyncReport, rep journal.ReplayReport) {
	d := nl.daemons[di]
	adopted, orphans := 0, 0
	for _, rn := range report.Nodes {
		if svc, ok := nl.services[rn.Service]; ok {
			if idx := nodeIndex(svc, rn.Info.NodeName); idx >= 0 {
				svc.Nodes[idx] = rn.Info
				adopted++
				continue
			}
		}
		// The journal never saw this node reach a live service (it was
		// mid-priming, or its service was dropped at takeover): reclaim
		// the slice under the new epoch.
		_ = d.Teardown(nl.state.Epoch, rn.Info.NodeName)
		orphans++
	}
	for _, hs := range report.Switches {
		svc, ok := nl.services[hs.Service]
		if !ok {
			d.DropSwitch(hs.Service)
			continue
		}
		svc.Switch = hs.Switch
		svc.Config = hs.Config
		svc.component = componentTag(hs.Service, hs.Config.ServiceName)
	}
	for _, hc := range report.Chunks {
		if nl.chunkDist == nil {
			break
		}
		for _, id := range hc.IDs {
			nl.trackerAnnounce(di, hc.Image, hc.Total, id, false)
		}
		if hc.Full {
			nl.trackerFull(di, hc.Image, hc.Total)
		}
	}
	c.received++
	nl.emit(EventDaemonResync, 0, "", d.Host().Spec.Name,
		fmt.Sprintf("epoch %d: %d node(s) adopted, %d orphan(s), %d image(s)",
			nl.state.Epoch, adopted, orphans, len(report.Chunks)))
	c.maybeComplete(nl, rep)
}

// maybeComplete seals the failover once every expected daemon reported:
// meters re-watch the adopted node sets, the journal compacts to a fresh
// snapshot, and the failover record (with control-plane MTTR) is
// published.
func (c *Cluster) maybeComplete(nl *Master, rep journal.ReplayReport) {
	if c.completed || c.received < c.expect {
		return
	}
	c.completed = true
	c.takingOver = false
	now := c.k.Now()
	for _, name := range nl.Services() {
		svc := nl.services[name]
		if svc.State() == Active && svc.Switch != nil {
			nl.watchService(svc)
		}
	}
	nl.maybeSnapshot(true)
	c.standbySeq = c.log.Seq()
	mttr := now.Sub(c.lastBeat)
	c.failoverCtr.Inc()
	if c.mttrHist != nil {
		c.mttrHist.Observe(mttr.Seconds())
	}
	c.failovers = append(c.failovers, FailoverRecord{
		At: now, Epoch: nl.state.Epoch, MTTR: mttr, Resynced: c.received,
		Replayed: rep.Records, Truncated: rep.Truncated,
	})
	nl.emit(EventFailover, 0, "", "",
		fmt.Sprintf("epoch %d leads: %d daemon(s) resynced, %d record(s) replayed, mttr %v",
			nl.state.Epoch, c.received, rep.Records, mttr))

	// With every daemon resynced the adopted node sets are authoritative:
	// re-drive any resize the old leader decided but never completed. The
	// journaled target is absolute, so this is idempotent whether or not
	// the old leader's commands landed.
	nl.reissuePendingResizes()
}

// nodeIndex finds a node by name in a service's record.
func nodeIndex(svc *Service, name string) int {
	for i, n := range svc.Nodes {
		if n.NodeName == name {
			return i
		}
	}
	return -1
}

// --- Master-side HA hooks -------------------------------------------

// Halt crash-stops the Master process: it stops journaling, admitting,
// tearing down, detecting failures, and tracking chunks. Its daemons and
// switches keep running — that is the whole point. Resume undoes it (the
// master-restore chaos fault); a resumed stale leader stays fenced by
// the epoch protocol.
func (m *Master) Halt() { m.halted = true }

// Resume brings a halted Master back. If a takeover happened in the
// meantime the revived process is a fenced bystander: it holds no
// journal, no detector, no tracker, and daemons reject its commands.
func (m *Master) Resume() { m.halted = false }

// Halted reports whether the Master is crash-stopped.
func (m *Master) Halted() bool { return m.halted }

// Epoch returns the Master's leadership epoch (0 when unclustered).
func (m *Master) Epoch() uint64 { return m.state.Epoch }

// Cluster returns the HA cluster this Master belongs to (nil when HA is
// not enabled).
func (m *Master) Cluster() *Cluster { return m.cluster }

// currentLeader resolves the master that currently holds the lease.
// Long-lived closures (heartbeat loops, accounting hooks, span sinks)
// route through this so they follow a failover.
func (m *Master) currentLeader() *Master {
	if m.cluster != nil {
		return m.cluster.leader
	}
	return m
}

// maybeSnapshot compacts the journal to a snapshot of the state. Unless
// forced, it waits for SnapshotEvery accumulated records; either way it
// waits while any service is mid-priming.
func (m *Master) maybeSnapshot(force bool) {
	if m.jlog == nil {
		return
	}
	if !force && (m.snapEvery <= 0 || m.jlog.TailRecords() < m.snapEvery) {
		return
	}
	for _, js := range m.state.Services {
		if ServiceState(js.State) != Active {
			return
		}
	}
	m.jlog.Snapshot(int64(m.net.Kernel().Now()), m.state)
}
