package soda

import (
	"fmt"
	"slices"

	"repro/internal/appsvc"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"

	"repro/internal/sim"
)

// HealthConfig tunes the Master's failure detector and recovery loop.
// The detector is deadline-based: Daemons heartbeat over the bridged
// network, and a host that falls silent is first suspected, then — after
// a longer deadline — confirmed dead, at which point every virtual
// service node it carried is recovered onto surviving hosts.
type HealthConfig struct {
	// HeartbeatEvery is the Daemon heartbeat period.
	HeartbeatEvery sim.Duration
	// SuspectAfter is the silence deadline after which a host is
	// suspected (default 3 heartbeat periods).
	SuspectAfter sim.Duration
	// ConfirmAfter is the silence deadline after which a suspected host
	// is confirmed dead and recovery begins (default 6 periods).
	ConfirmAfter sim.Duration
	// CheckEvery is the detector's evaluation period (default half a
	// heartbeat period).
	CheckEvery sim.Duration
	// RetryRecovery is the back-off before a failed replacement attempt
	// is retried.
	RetryRecovery sim.Duration
	// EjectAfter / ProbeAfter configure the passive per-backend health
	// pushed into every service switch (see svcswitch.HealthConfig).
	EjectAfter int
	ProbeAfter sim.Duration
	// HeartbeatJitter spreads each daemon's next beat by ±frac of the
	// period, drawn from the daemon's own seeded stream (default 0.1).
	// Without it every daemon beats in lockstep, and a post-failover
	// re-registration arrives as one synchronized burst at the new
	// leader. Negative disables jitter.
	HeartbeatJitter float64
}

// withDefaults fills zero fields with the standard tuning.
func (c HealthConfig) withDefaults() HealthConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * sim.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatEvery
	}
	if c.ConfirmAfter <= 0 {
		c.ConfirmAfter = 6 * c.HeartbeatEvery
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = c.HeartbeatEvery / 2
	}
	if c.RetryRecovery <= 0 {
		c.RetryRecovery = 2 * sim.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = sim.Second
	}
	if c.HeartbeatJitter == 0 {
		c.HeartbeatJitter = 0.1
	}
	if c.HeartbeatJitter < 0 {
		c.HeartbeatJitter = 0
	}
	return c
}

// HostState is the failure detector's view of one HUP host.
type HostState int

// Detector states, in escalation order.
const (
	// HostAlive: heartbeats arriving within the suspect deadline.
	HostAlive HostState = iota
	// HostSuspected: silent past SuspectAfter but not yet confirmed.
	HostSuspected
	// HostDead: silent past ConfirmAfter; its nodes have been recovered.
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
// LAN; the Master evaluates deadlines every CheckEvery and, on a
// confirmed host death, re-primes the lost virtual service nodes on
// surviving hosts and swaps them into the service switches. Passive
// per-backend health (consecutive-error ejection with half-open
// re-admission) is pushed into every existing and future service switch.
// Idempotent; a second call is ignored.
func (m *Master) EnableHealth(cfg HealthConfig) {
	if m.health != nil {
		return
	}
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
			k.After(d.beatRNG.JitterDuration(cfg.HeartbeatEvery, cfg.HeartbeatJitter), beat)
		}
		k.After(d.beatRNG.JitterDuration(cfg.HeartbeatEvery, cfg.HeartbeatJitter), beat)
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
	k.Every(cfg.CheckEvery, m.checkLiveness)

	// Existing switches pick up passive backend health immediately.
	swCfg := svcswitch.HealthConfig{EjectAfter: cfg.EjectAfter, ProbeAfter: cfg.ProbeAfter}
	for _, name := range m.Services() {
		if svc := m.services[name]; svc.Switch != nil {
			svc.Switch.SetHealth(swCfg)
		}
	}
}

// HealthEnabled reports whether EnableHealth has been called.
func (m *Master) HealthEnabled() bool { return m.health != nil }

// HealthConfig returns the active detector tuning (zero when disabled).
func (m *Master) HealthConfig() HealthConfig {
	if m.health == nil {
		return HealthConfig{}
	}
	return m.health.cfg
}

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
		m.emit(EventHostAlive, "", m.daemons[i].Host().Spec.Name, fmt.Sprintf("host %s back from %v", m.daemons[i].Host().Spec.Name, prev))
		m.flog.Component("health").Info("host alive",
			telemetry.L("host", m.daemons[i].Host().Spec.Name),
			telemetry.L("was", prev.String()))
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
		if hs.state == HostAlive && silent >= h.cfg.SuspectAfter {
			hs.state = HostSuspected
			m.emit(EventHostSuspected, "", m.daemons[i].Host().Spec.Name,
				fmt.Sprintf("host %s silent %v", m.daemons[i].Host().Spec.Name, silent))
			m.flog.Component("health").Warn("host suspected",
				telemetry.L("host", m.daemons[i].Host().Spec.Name),
				telemetry.L("silent", silent.String()))
		}
		if hs.state == HostSuspected && silent >= h.cfg.ConfirmAfter {
			hs.state = HostDead
			h.hostDeadCtr.Inc()
			m.emit(EventHostDead, "", m.daemons[i].Host().Spec.Name,
				fmt.Sprintf("host %s silent %v, recovering", m.daemons[i].Host().Spec.Name, silent))
			m.flog.Component("health").Error("host dead",
				telemetry.L("host", m.daemons[i].Host().Spec.Name),
				telemetry.L("silent", silent.String()))
			m.hostDied(i, now)
		}
	}
}

// hostDied recovers every service that had nodes on the dead host.
func (m *Master) hostDied(i int, detectedAt sim.Time) {
	hostName := m.daemons[i].Host().Spec.Name
	for _, name := range m.Services() {
		svc := m.services[name]
		if svc.State != Active {
			continue
		}
		var lost []NodeInfo
		for _, n := range svc.Nodes {
			if svc.nodeDaemon[n.NodeName] == i {
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
	if !ok || svc.State != Active {
		return
	}
	info, ok := svc.NodeByName(node)
	if !ok {
		return
	}
	if di, ok := svc.nodeDaemon[node]; ok {
		// The host is alive: tear the dead node's slice down so its
		// reservation, bridged IP, and disk return to the pool before the
		// replacement is placed.
		_ = m.daemons[di].TeardownAs(m.epoch, node)
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
			entry := svcswitch.BackendEntry{IP: n.IP, Port: n.Port, Capacity: n.Capacity}
			svc.Switch.Unbind(entry)
		}
		svc.Config.RemoveEntry(n.IP, n.Port)
		delete(svc.nodeDaemon, n.NodeName)
		svc.Nodes = slices.DeleteFunc(svc.Nodes, func(x NodeInfo) bool { return x.NodeName == n.NodeName })
		m.journal("node-failed", jNodeRef{Service: svc.Spec.Name, Name: n.NodeName})
		m.emit(EventNodeFailed, svc.Spec.Name, n.NodeName,
			fmt.Sprintf("%s (%s, cap %d)", cause, n.HostName, n.Capacity))
		m.flog.Component("health").Error("node failed",
			telemetry.L("service", svc.Spec.Name), telemetry.L("node", n.NodeName),
			telemetry.L("cause", cause))
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
	if cur, ok := m.services[svc.Spec.Name]; !ok || cur != svc || svc.State != Active {
		return
	}
	k := m.net.Kernel()
	failedNode, failedHost := "", ""
	if len(lost) > 0 {
		failedNode, failedHost = lost[0].NodeName, lost[0].HostName
	}
	retry := func(remaining int) {
		m.emit(EventRecoveryFailed, svc.Spec.Name, "",
			fmt.Sprintf("%d instance(s) unplaced, retry in %v", remaining, h.cfg.RetryRecovery))
		m.flog.Component("health").Warn("recovery shortfall",
			telemetry.L("service", svc.Spec.Name),
			telemetry.L("unplaced", fmt.Sprint(remaining)))
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

	root := m.tracer.StartRoot("recovery.replace",
		telemetry.L("service", svc.Spec.Name), telemetry.L("instances", fmt.Sprintf("%d", lostCap)))

	// Allocate replacement nodes on hosts the service does not occupy.
	occupied := make(map[int]bool)
	for _, di := range svc.nodeDaemon {
		occupied[di] = true
	}
	var avail []HostAvail
	for _, ha := range m.CollectAvailability() {
		if !occupied[ha.Index] {
			avail = append(avail, ha)
		}
	}
	placements, err := AllocateWith(m.Strategy, avail, Requirement{N: lostCap, M: svc.Spec.Requirement.M}, m.Factor)
	if err != nil {
		// No room for fresh nodes — grow the surviving nodes in place.
		remaining := lostCap
		progress := true
		for remaining > 0 && progress {
			progress = false
			for i := range svc.Nodes {
				if remaining == 0 {
					break
				}
				n := &svc.Nodes[i]
				d := m.daemons[svc.nodeDaemon[n.NodeName]]
				info, rerr := d.ResizeNodeAs(m.epoch, n.NodeName, svc.Spec.Requirement.M, n.Capacity+1, m.Factor)
				if rerr != nil {
					continue
				}
				n.Capacity = info.Capacity
				m.journal("node-resized", jNodeRef{Service: svc.Spec.Name, Name: n.NodeName, Capacity: info.Capacity})
				remaining--
				progress = true
			}
		}
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
			m.emit(EventNodeRecovered, svc.Spec.Name, "",
				fmt.Sprintf("in-place +%d, mttr %v", lostCap-remaining, k.Now().Sub(detectedAt)))
			m.flog.Component("health").WithTrace(root.TraceID()).Info("node recovered",
				telemetry.L("service", svc.Spec.Name),
				telemetry.L("mttr", k.Now().Sub(detectedAt).String()))
		}
		if remaining > 0 {
			root.Fail(fmt.Errorf("soda: recovery of %q: %w", svc.Spec.Name, err))
			retry(remaining)
			return
		}
		root.EndSpan()
		return
	}

	pending := len(placements)
	shortfall := 0
	finishOne := func() {
		pending--
		if pending > 0 {
			return
		}
		m.refreshConfig(svc)
		m.watchService(svc)
		if shortfall > 0 {
			root.Fail(fmt.Errorf("soda: recovery of %q: %d instance(s) unplaced", svc.Spec.Name, shortfall))
			retry(shortfall)
			return
		}
		root.EndSpan()
	}
	for _, pl := range placements {
		pl := pl
		d := m.daemons[pl.Index]
		nodeName := fmt.Sprintf("%s-%d", svc.Spec.Name, svc.nextNodeID)
		svc.nextNodeID++
		svc.nodeDaemon[nodeName] = pl.Index
		prime := root.StartChild("recovery.prime",
			telemetry.L("node", nodeName), telemetry.L("host", d.Host().Spec.Name))
		abort := func(aerr error) {
			prime.Fail(aerr)
			delete(svc.nodeDaemon, nodeName)
			shortfall += pl.Instances
			finishOne()
		}
		terr := m.net.Transfer(m.IP, d.HostIP, 1024, func() {
			d.Prime(PrimeRequest{
				ServiceName:  svc.Spec.Name,
				NodeName:     nodeName,
				ImageName:    svc.Spec.ImageName,
				Repository:   svc.Spec.Repository,
				M:            svc.Spec.Requirement.M,
				Instances:    pl.Instances,
				Factor:       m.Factor,
				GuestProfile: svc.Spec.GuestProfile,
				Port:         servicePort(svc.Spec),
				FanOut:       len(placements),
				Span:         prime,
				Epoch:        m.epoch,
			}, func(info NodeInfo) {
				prime.EndSpan()
				svc.Nodes = append(svc.Nodes, info)
				m.journal("node-primed", jNodePrimed{
					jNode:  jNodeOf(svc.Spec.Name, info, pl.Index),
					NextID: svc.nextNodeID,
				})
				if svc.Switch != nil {
					entry := svcswitch.BackendEntry{IP: info.IP, Port: info.Port, Capacity: info.Capacity}
					if svc.Spec.Behavior != nil {
						if hd := svc.Spec.Behavior(info.Guest); hd != nil {
							svc.Switch.Bind(entry, hd)
						}
					}
					// If the switch is still homed on a dead guest (the whole
					// service was lost), adopt the replacement.
					if !svc.Switch.Node().Alive() {
						svc.Switch.SetNode(&appsvc.GuestBackend{G: info.Guest})
						m.homeSwitch(svc, info.NodeName)
					}
				}
				mttr := m.net.Kernel().Now().Sub(detectedAt)
				h.recoveriesCtr.Inc()
				h.mttrHist.Observe(mttr.Seconds())
				h.recoveries = append(h.recoveries, RecoveryRecord{
					At: m.net.Kernel().Now(), Service: svc.Spec.Name,
					FailedNode: failedNode, FailedHost: failedHost,
					NewNode: info.NodeName, NewHost: info.HostName,
					MTTR: mttr, OK: true,
					Detail: fmt.Sprintf("cap %d", info.Capacity),
				})
				m.emit(EventNodeRecovered, svc.Spec.Name, info.NodeName,
					fmt.Sprintf("on %s cap=%d mttr=%v", info.HostName, info.Capacity, mttr))
				m.flog.Component("health").WithTrace(root.TraceID()).Info("node recovered",
					telemetry.L("service", svc.Spec.Name),
					telemetry.L("node", info.NodeName),
					telemetry.L("host", info.HostName),
					telemetry.L("mttr", mttr.String()))
				finishOne()
			}, abort)
		})
		if terr != nil {
			abort(terr)
		}
	}
}
