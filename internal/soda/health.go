package soda

import (
	"fmt"
	"slices"

	"repro/internal/appsvc"
	"repro/internal/telemetry"

	"repro/internal/sim"
)

// HealthConfig tunes the Master's failure detector and recovery loop.
// The detector is deadline-based: Daemons heartbeat over the bridged
// network, and a host that falls silent is first suspected, then — after
// a longer deadline — confirmed dead, at which point every virtual
// service node it carried is recovered onto surviving hosts. The
// deadlines scale with the heartbeat period: a host is suspected after 3
// periods of silence and confirmed dead after 6, checked every half
// period.
type HealthConfig struct {
	// HeartbeatEvery is the Daemon heartbeat period.
	HeartbeatEvery sim.Duration
	// RetryRecovery is the back-off before a failed replacement attempt
	// is retried.
	RetryRecovery sim.Duration
	// ProbeAfter is how long a backend that the service switches ejected
	// sits out before a probe (see svcswitch.HealthConfig).
	ProbeAfter sim.Duration
}

const (
	// ejectAfter is the consecutive-failure count at which a service
	// switch ejects a backend.
	ejectAfter = 3
	// heartbeatJitter spreads each daemon's next beat by ±10% of the
	// period, drawn from the daemon's own seeded stream. Without it every
	// daemon beats in lockstep, and a post-failover re-registration
	// arrives as one synchronized burst at the new leader.
	heartbeatJitter = 0.1
)

// withDefaults fills zero fields with the standard tuning.
func (c HealthConfig) withDefaults() HealthConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * sim.Millisecond
	}
	if c.RetryRecovery <= 0 {
		c.RetryRecovery = 2 * sim.Second
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = sim.Second
	}
	return c
}

// suspectAfter is the silence after which a host is suspected.
func (c HealthConfig) suspectAfter() sim.Duration { return 3 * c.HeartbeatEvery }

// confirmAfter is the silence after which a suspected host is confirmed
// dead and recovery begins.
func (c HealthConfig) confirmAfter() sim.Duration { return 6 * c.HeartbeatEvery }

// checkEvery is the detector's evaluation period.
func (c HealthConfig) checkEvery() sim.Duration { return c.HeartbeatEvery / 2 }

// HostState is the failure detector's view of one HUP host.
type HostState int

// Detector states, in escalation order.
const (
	// HostAlive: heartbeats arriving within the suspect deadline.
	HostAlive HostState = iota
	// HostSuspected: silent past 3 heartbeat periods but not yet
	// confirmed.
	HostSuspected
	// HostDead: silent past 6 heartbeat periods; its nodes have been
	// recovered.
	HostDead
)

// String names the state.
func (s HostState) String() string {
	switch s {
	case HostAlive:
		return "alive"
	case HostSuspected:
		return "suspected"
	case HostDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// HostHealth is one host's detector record, for consoles and tests.
type HostHealth struct {
	// Host is the HUP host name.
	Host string
	// State is the detector's current verdict.
	State HostState
	// LastBeat is when the last heartbeat arrived.
	LastBeat sim.Time
	// Beats counts heartbeats received.
	Beats int
}

// RecoveryRecord describes one completed (or failed) node replacement.
type RecoveryRecord struct {
	// At is when the replacement finished (or failed).
	At sim.Time
	// Service is the affected service.
	Service string
	// FailedNode / FailedHost name what was lost.
	FailedNode, FailedHost string
	// NewNode / NewHost name the replacement (empty on failure).
	NewNode, NewHost string
	// MTTR is detection-to-recovery time.
	MTTR sim.Duration
	// OK reports whether the replacement succeeded.
	OK bool
	// Detail carries human-readable context.
	Detail string
}

// hostHealthState is the detector's mutable per-host record.
type hostHealthState struct {
	state    HostState
	lastBeat sim.Time
	beats    int
}

// healthMonitor holds the Master's failure-detection state.
type healthMonitor struct {
	cfg        HealthConfig
	hosts      []hostHealthState
	recoveries []RecoveryRecord

	recoveriesCtr *telemetry.Counter
	hostDeadCtr   *telemetry.Counter
	mttrHist      *telemetry.Histogram
}

// EnableHealth turns on heartbeat-based failure detection and automatic
// node recovery. Each Daemon heartbeats to the Master over the modelled
// LAN; the Master evaluates deadlines every half heartbeat and, on a
// confirmed host death, re-primes the lost virtual service nodes on
// surviving hosts and swaps them into the service switches. Passive
// per-backend health (consecutive-error ejection with half-open
// re-admission) is pushed into every service switch. Attach once,
// before the first service.
func (m *Master) EnableHealth(cfg HealthConfig) {
	m.mustAttach("EnableHealth", m.health != nil)
	cfg = cfg.withDefaults()
	k := m.net.Kernel()
	h := &healthMonitor{
		cfg:   cfg,
		hosts: make([]hostHealthState, len(m.daemons)),
	}
	now := k.Now()
	for i := range h.hosts {
		h.hosts[i].lastBeat = now
	}
	h.recoveriesCtr = m.reg.Counter("soda_recoveries_total")
	h.hostDeadCtr = m.reg.Counter("soda_hosts_dead_total")
	if m.reg != nil {
		h.mttrHist = m.reg.Histogram("soda_mttr_seconds", nil)
	}
	m.health = h

	for i, d := range m.daemons {
		i, d := i, d
		// Heartbeats: a crashed host stops sending; the beat itself rides
		// the LAN so partitions and loss faults delay or drop it. Each
		// daemon self-schedules with seeded jitter (instead of a shared
		// fixed-period ticker) so the fleet's beats de-phase — after a
		// Master failover the re-registration traffic arrives spread out,
		// not as one synchronized burst. Beats chase the current leader.
		var beat func()
		beat = func() {
			if !d.Crashed() {
				lead := m.currentLeader()
				if !lead.halted {
					_ = m.net.Transfer(d.HostIP, lead.IP, 64, func() { lead.heartbeat(i) })
				}
			}
			k.After(d.beatRNG.JitterDuration(cfg.HeartbeatEvery, heartbeatJitter), beat)
		}
		k.After(d.beatRNG.JitterDuration(cfg.HeartbeatEvery, heartbeatJitter), beat)
		// Guest-OS crash reports: the daemon noticed a single node die on
		// an otherwise healthy host — no need to wait for a heartbeat
		// deadline.
		d.SetCrashSink(func(service, node, reason string) {
			lead := m.currentLeader()
			if lead.halted {
				return
			}
			_ = m.net.Transfer(d.HostIP, lead.IP, 128, func() {
				lead.nodeCrashed(service, node, reason)
			})
		})
	}
	k.Every(cfg.checkEvery(), m.checkLiveness)
}

// HealthEnabled reports whether EnableHealth has been called.
func (m *Master) HealthEnabled() bool { return m.health != nil }

// HostHealth returns the detector's per-host records, daemon order.
func (m *Master) HostHealth() []HostHealth {
	if m.health == nil {
		return nil
	}
	out := make([]HostHealth, len(m.health.hosts))
	for i, hs := range m.health.hosts {
		out[i] = HostHealth{
			Host:     m.daemons[i].Host().Spec.Name,
			State:    hs.state,
			LastBeat: hs.lastBeat,
			Beats:    hs.beats,
		}
	}
	return out
}

// Recoveries returns the recovery history in completion order.
func (m *Master) Recoveries() []RecoveryRecord {
	if m.health == nil {
		return nil
	}
	return append([]RecoveryRecord(nil), m.health.recoveries...)
}

// heartbeat records a beat from daemon i and clears any suspicion.
func (m *Master) heartbeat(i int) {
	h := m.health
	if h == nil || m.halted {
		return
	}
	hs := &h.hosts[i]
	hs.lastBeat = m.net.Kernel().Now()
	hs.beats++
	if hs.state != HostAlive {
		prev := hs.state
		hs.state = HostAlive
		m.emit(EventHostAlive, 0, "", m.daemons[i].Host().Spec.Name, fmt.Sprintf("host %s back from %v", m.daemons[i].Host().Spec.Name, prev))
	}
}

// checkLiveness is the detector tick: escalate silent hosts.
func (m *Master) checkLiveness() {
	h := m.health
	if h == nil || m.halted {
		return
	}
	now := m.net.Kernel().Now()
	for i := range h.hosts {
		hs := &h.hosts[i]
		silent := now.Sub(hs.lastBeat)
		if hs.state == HostAlive && silent >= h.cfg.suspectAfter() {
			hs.state = HostSuspected
			m.emit(EventHostSuspected, 0, "", m.daemons[i].Host().Spec.Name,
				fmt.Sprintf("host %s silent %v", m.daemons[i].Host().Spec.Name, silent))
		}
		if hs.state == HostSuspected && silent >= h.cfg.confirmAfter() {
			hs.state = HostDead
			h.hostDeadCtr.Inc()
			m.emit(EventHostDead, 0, "", m.daemons[i].Host().Spec.Name,
				fmt.Sprintf("host %s silent %v, recovering", m.daemons[i].Host().Spec.Name, silent))
			m.hostDied(i, now)
		}
	}
}

// hostDied recovers every service that had nodes on the dead host.
func (m *Master) hostDied(i int, detectedAt sim.Time) {
	hostName := m.daemons[i].Host().Spec.Name
	for _, name := range m.Services() {
		svc := m.services[name]
		if svc.State() != Active {
			continue
		}
		var lost []NodeInfo
		for _, n := range svc.Nodes {
			if di, _ := svc.daemonOf(n.NodeName); di == i {
				lost = append(lost, n)
			}
		}
		if len(lost) == 0 {
			continue
		}
		m.recoverNodes(svc, lost, detectedAt, fmt.Sprintf("host %s dead", hostName))
	}
}

// nodeCrashed handles a single guest-OS crash reported by a live daemon:
// the daemon's slice is reclaimed immediately, then the node is replaced.
func (m *Master) nodeCrashed(service, node, reason string) {
	if m.health == nil {
		return
	}
	svc, ok := m.services[service]
	if !ok || svc.State() != Active {
		return
	}
	info, ok := svc.NodeByName(node)
	if !ok {
		return
	}
	if di, ok := svc.daemonOf(node); ok {
		// The host is alive: tear the dead node's slice down so its
		// reservation, bridged IP, and disk return to the pool before the
		// replacement is placed.
		_ = m.daemons[di].Teardown(m.state.Epoch, node)
	}
	m.recoverNodes(svc, []NodeInfo{info}, m.net.Kernel().Now(), "guest crash: "+reason)
}

// recoverNodes removes the lost nodes from the service's route table and
// bookkeeping, re-homes the switch if its node died, then restores the
// lost capacity on surviving hosts.
func (m *Master) recoverNodes(svc *Service, lost []NodeInfo, detectedAt sim.Time, cause string) {
	lostCap := 0
	homeLost := false
	for _, n := range lost {
		lostCap += n.Capacity
		if len(svc.Nodes) > 0 && svc.Nodes[0].NodeName == n.NodeName {
			homeLost = true
		}
		if svc.Switch != nil {
			svc.Switch.Unbind(svc.entry(n))
		}
		svc.Config.RemoveEntry(n.IP, n.Port)
		svc.Nodes = slices.DeleteFunc(svc.Nodes, func(x NodeInfo) bool { return x.NodeName == n.NodeName })
		m.commit("node-failed", jNodeRef{Service: svc.Spec.Name, Name: n.NodeName})
		m.emit(EventNodeFailed, 0, svc.Spec.Name, n.NodeName,
			fmt.Sprintf("%s (%s, cap %d)", cause, n.HostName, n.Capacity))
	}

	// If the switch's home node died, adopt a survivor: the Switch value
	// (and with it the clients' reference) stays, only the executing node
	// changes. With no survivors the switch keeps pointing at the dead
	// guest and drops requests until a replacement arrives.
	if homeLost && len(svc.Nodes) > 0 && svc.Switch != nil {
		svc.Switch.SetNode(&appsvc.GuestBackend{G: svc.Nodes[0].Guest})
		m.homeSwitch(svc, svc.Nodes[0].NodeName)
	}
	// Re-watch so the meter stops reading dead guests' odometers.
	m.watchService(svc)
	m.restoreCapacity(svc, lost, lostCap, detectedAt)
}

// restoreCapacity places lostCap machine instances back: in-place growth
// on surviving nodes where reservations allow, new nodes elsewhere.
// Shortfalls are retried after cfg.RetryRecovery.
func (m *Master) restoreCapacity(svc *Service, lost []NodeInfo, lostCap int, detectedAt sim.Time) {
	h := m.health
	if h == nil || lostCap <= 0 {
		return
	}
	if svc.State() != Active {
		return
	}
	k := m.net.Kernel()
	failedNode, failedHost := "", ""
	if len(lost) > 0 {
		failedNode, failedHost = lost[0].NodeName, lost[0].HostName
	}
	root := m.tracer.StartRoot("recovery.replace",
		telemetry.L("service", svc.Spec.Name), telemetry.L("instances", fmt.Sprintf("%d", lostCap)))
	retry := func(remaining int) {
		m.emit(EventRecoveryFailed, root.TraceID(), svc.Spec.Name, "",
			fmt.Sprintf("%d instance(s) unplaced, retry in %v", remaining, h.cfg.RetryRecovery))
		h.recoveries = append(h.recoveries, RecoveryRecord{
			At: k.Now(), Service: svc.Spec.Name,
			FailedNode: failedNode, FailedHost: failedHost,
			MTTR: k.Now().Sub(detectedAt), OK: false,
			Detail: fmt.Sprintf("%d instance(s) unplaced", remaining),
		})
		k.After(h.cfg.RetryRecovery, func() {
			m.restoreCapacity(svc, lost, remaining, detectedAt)
		})
	}

	// Allocate replacement nodes on hosts the service does not occupy.
	placements, err := m.placeFresh(svc, lostCap)
	if err != nil {
		// No room for fresh nodes — grow the surviving nodes in place.
		remaining := m.growInPlace(svc, lostCap)
		if remaining < lostCap {
			m.refreshConfig(svc)
			m.watchService(svc)
			h.recoveriesCtr.Inc()
			h.mttrHist.Observe(k.Now().Sub(detectedAt).Seconds())
			h.recoveries = append(h.recoveries, RecoveryRecord{
				At: k.Now(), Service: svc.Spec.Name,
				FailedNode: failedNode, FailedHost: failedHost,
				MTTR: k.Now().Sub(detectedAt), OK: true,
				Detail: fmt.Sprintf("grew survivors in place by %d", lostCap-remaining),
			})
			m.emit(EventNodeRecovered, root.TraceID(), svc.Spec.Name, "",
				fmt.Sprintf("in-place +%d, mttr %v", lostCap-remaining, k.Now().Sub(detectedAt)))
		}
		if remaining > 0 {
			root.Fail(fmt.Errorf("soda: recovery of %q: %w", svc.Spec.Name, err))
			retry(remaining)
			return
		}
		root.EndSpan()
		return
	}

	m.primeNodes(svc, placements, root, "recovery.prime", func(info NodeInfo) {
		if svc.Switch != nil {
			svc.bind(info)
			// If the switch is still homed on a dead guest (the whole
			// service was lost), adopt the replacement.
			if !svc.Switch.Node().Alive() {
				svc.Switch.SetNode(&appsvc.GuestBackend{G: info.Guest})
				m.homeSwitch(svc, info.NodeName)
			}
		}
		mttr := k.Now().Sub(detectedAt)
		h.recoveriesCtr.Inc()
		h.mttrHist.Observe(mttr.Seconds())
		h.recoveries = append(h.recoveries, RecoveryRecord{
			At: k.Now(), Service: svc.Spec.Name,
			FailedNode: failedNode, FailedHost: failedHost,
			NewNode: info.NodeName, NewHost: info.HostName,
			MTTR: mttr, OK: true,
			Detail: fmt.Sprintf("cap %d", info.Capacity),
		})
		m.emit(EventNodeRecovered, root.TraceID(), svc.Spec.Name, info.NodeName,
			fmt.Sprintf("on %s cap=%d mttr=%v", info.HostName, info.Capacity, mttr))
	}, func(unplaced int, _ error) {
		m.refreshConfig(svc)
		m.watchService(svc)
		if unplaced > 0 {
			root.Fail(fmt.Errorf("soda: recovery of %q: %d instance(s) unplaced", svc.Spec.Name, unplaced))
			retry(unplaced)
			return
		}
		root.EndSpan()
	})
}
