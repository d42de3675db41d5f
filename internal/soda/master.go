package soda

import (
	"fmt"
	"sort"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/flight"
	"repro/internal/journal"
	"repro/internal/reqtrace"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// Master is the middleware-level coordinator (§3.2): it admits or rejects
// service creation requests against collected availability, maps <n, M>
// onto virtual service nodes, drives the Daemons' priming, creates the
// per-service switch, and performs resizing and tear-down.
type Master struct {
	// IP is the Master machine's address.
	IP simnet.IP
	// Factor is the conservative slow-down inflation (§3.2 footnote 2).
	Factor float64
	// Strategy selects how instances map onto hosts; the default Spread
	// reproduces the paper's Figure 2 placement.
	Strategy Strategy

	net       *simnet.Network
	daemons   []*Daemon
	services  map[string]*Service
	observers []Observer
	// settled holds the final metered usage of torn-down services until
	// the Agent folds it into the owner's bill.
	settled map[string]accounting.Usage

	// Admitted and Rejected count creation requests.
	Admitted, Rejected int

	// acct meters usage and evaluates SLOs for hosted services; nil when
	// accounting is disabled.
	acct *accounting.Accountant

	// health is the failure detector and recovery loop; nil until
	// EnableHealth.
	health *healthMonitor

	// chunkDist is the cooperative image-distribution tracker; nil until
	// EnableChunkDistribution.
	chunkDist *chunkTracker

	// reqTraces is the per-request tail-sampling trace store; nil until
	// EnableRequestTracing. Each service switch gets its own collector,
	// slow threshold derived from the service's SLO latency target.
	reqTraces *reqtrace.Store

	// autos holds the demand-driven scaling controller of every service
	// whose spec enables one (see autoscale.go). The map always exists;
	// controllers are armed at admission and dropped at teardown.
	autos map[string]*autoscaler

	// High availability (see ha.go). jlog is the write-ahead journal the
	// Master appends every state mutation to; nil for unclustered masters
	// and for a fenced old leader. epoch is the leadership epoch stamped
	// on daemon commands; halted marks a crash-stopped Master process;
	// snapEvery is the journal compaction threshold.
	jlog      *journal.Log
	epoch     uint64
	cluster   *Cluster
	halted    bool
	snapEvery int

	// Telemetry. All fields are nil-safe: an uninstrumented Master pays
	// only no-op calls.
	reg            *telemetry.Registry
	tracer         *telemetry.Tracer
	flog           *flight.Logger
	admittedCtr    *telemetry.Counter
	rejectedCtr    *telemetry.Counter
	tornDownCtr    *telemetry.Counter
	activeServices *telemetry.Gauge
	autoUpCtr      *telemetry.Counter
	autoDownCtr    *telemetry.Counter
	autoBlockedCtr *telemetry.Counter
}

// Service is the Master's record of one hosted application service: the
// set of virtual service nodes plus the service switch (§3.4: "service S
// is now created as the set of virtual service nodes and the service
// switch").
type Service struct {
	Spec  ServiceSpec
	State ServiceState
	// Nodes are the created virtual service nodes, switch host first.
	Nodes []NodeInfo
	// Config is the service configuration file inside the switch,
	// created and maintained by the Master.
	Config *svcswitch.ConfigFile
	// Switch routes client requests to the nodes.
	Switch *svcswitch.Switch

	nodeDaemon map[string]int // node name → daemon index
	nextNodeID int
}

// TotalCapacity returns the service's current machine-instance count.
func (s *Service) TotalCapacity() int { return s.Config.TotalCapacity() }

// NodeByName returns the named node's info.
func (s *Service) NodeByName(name string) (NodeInfo, bool) {
	for _, n := range s.Nodes {
		if n.NodeName == name {
			return n, true
		}
	}
	return NodeInfo{}, false
}

// NewMaster creates the HUP's coordinator. The Master's address must be
// bridged so control traffic can be modelled.
func NewMaster(net *simnet.Network, ip simnet.IP, daemons []*Daemon) (*Master, error) {
	if _, ok := net.Lookup(ip); !ok {
		return nil, fmt.Errorf("soda: master address %s not bridged", ip)
	}
	if len(daemons) == 0 {
		return nil, fmt.Errorf("soda: master with no daemons")
	}
	return &Master{
		IP:       ip,
		Factor:   SlowdownFactor,
		net:      net,
		daemons:  daemons,
		services: make(map[string]*Service),
		settled:  make(map[string]accounting.Usage),
		autos:    make(map[string]*autoscaler),
	}, nil
}

// Instrument connects the Master — and every switch it subsequently
// creates — to a metrics registry and span tracer. Both may be nil
// (no-op). Daemons are instrumented separately (hup.Testbed wires the
// whole control plane in one call).
func (m *Master) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	m.reg = reg
	m.tracer = tracer
	if tracer != nil {
		// The event mechanism consumes the span stream: every closed span
		// becomes an EventSpanEnded for the registered observers.
		tracer.OnEnd(func(sp *telemetry.Span) {
			svcName, _ := sp.Attr("service")
			node, _ := sp.Attr("node")
			// Route via the current leader so observers keep receiving span
			// events after a failover moved them.
			m.currentLeader().emit(EventSpanEnded, svcName, node, fmt.Sprintf("%s took %v", sp.Name, sp.Duration()))
		})
	}
	m.admittedCtr = reg.Counter("soda_master_admitted_total")
	m.rejectedCtr = reg.Counter("soda_master_rejected_total")
	m.tornDownCtr = reg.Counter("soda_master_torndown_total")
	m.activeServices = reg.Gauge("soda_master_services")
	m.autoUpCtr = reg.Counter("soda_autoscale_up_total")
	m.autoDownCtr = reg.Counter("soda_autoscale_down_total")
	m.autoBlockedCtr = reg.Counter("soda_autoscale_blocked_total")
	m.admittedCtr.Add(int64(m.Admitted))
	m.rejectedCtr.Add(int64(m.Rejected))
	m.activeServices.Set(float64(len(m.services)))
}

// SetFlightLogger routes the Master's structured diagnostics — and those
// of every switch it subsequently creates and every daemon it drives —
// into the flight recorder. Nil restores the no-op default. Call it
// before services are created so their switches inherit the logger.
func (m *Master) SetFlightLogger(l *flight.Logger) {
	m.flog = l.Component("master")
	for _, d := range m.daemons {
		d.SetFlightLogger(l)
	}
	if m.acct != nil {
		m.acct.SetLogger(l.Component("accounting"))
	}
	for _, svc := range m.services {
		if svc.Switch != nil {
			svc.Switch.SetLogger(l.Component("switch", telemetry.L("service", svc.Spec.Name)))
		}
	}
}

// FlightLogger returns the logger family attached via SetFlightLogger
// (component "master"; nil when unset).
func (m *Master) FlightLogger() *flight.Logger { return m.flog }

// EnableAccounting attaches the usage-metering and SLO-evaluation
// subsystem: every Active service is watched, resizes re-watch with the
// new node set, teardowns settle the final bill, and violations surface
// as EventSLOViolation to the Master's observers.
func (m *Master) EnableAccounting(a *accounting.Accountant) {
	m.acct = a
	if a == nil {
		return
	}
	if m.flog != nil {
		a.SetLogger(m.flog.Component("accounting"))
	}
	a.OnViolation(func(v accounting.Violation) {
		m.currentLeader().emit(EventSLOViolation, v.Service, "", v.Detail)
	})
	// Services already active (accounting enabled late) start metering
	// from now.
	for _, svc := range m.services {
		if svc.State == Active {
			m.watchService(svc)
		}
	}
}

// Accountant returns the attached accountant (nil when accounting is
// disabled).
func (m *Master) Accountant() *accounting.Accountant { return m.acct }

// EnableRequestTracing attaches the tail-sampling request-trace store:
// every switch the Master subsequently creates — and every service
// already active — gets a per-service collector, its slow-retention
// threshold derived from the service's SLO latency target. Nil detaches
// (existing switches keep their collectors until rebuilt).
func (m *Master) EnableRequestTracing(st *reqtrace.Store) {
	m.reqTraces = st
	if st == nil {
		return
	}
	for _, svc := range m.services {
		if svc.Switch != nil {
			m.attachRequestTracer(svc)
		}
	}
}

// RequestTraces returns the attached trace store (nil when request
// tracing is disabled).
func (m *Master) RequestTraces() *reqtrace.Store { return m.reqTraces }

// attachRequestTracer wires one service's switch to its collector.
func (m *Master) attachRequestTracer(svc *Service) {
	c := m.reqTraces.Collector(svc.Spec.Name)
	if slo := svc.Config.SLO(); slo.LatencyTarget > 0 {
		c.SetSlowThreshold(slo.LatencyTarget)
	}
	svc.Switch.SetRequestTracer(c)
}

// UsageTotals returns a service's live cumulative metered usage.
func (m *Master) UsageTotals(name string) (accounting.Usage, bool) {
	if m.acct == nil {
		return accounting.Usage{}, false
	}
	return m.acct.Totals(name)
}

// SettledUsage returns — and consumes — the final metered usage of a
// torn-down service.
func (m *Master) SettledUsage(name string) (accounting.Usage, bool) {
	u, ok := m.settled[name]
	if ok {
		delete(m.settled, name)
		m.journal("usage-claimed", jName{Service: name})
	}
	return u, ok
}

// nodeRefs converts a service's node records into meter references.
func nodeRefs(svc *Service) []accounting.NodeRef {
	refs := make([]accounting.NodeRef, 0, len(svc.Nodes))
	for _, n := range svc.Nodes {
		ref := accounting.NodeRef{Name: n.NodeName, UID: n.UID, IP: n.IP}
		if n.Guest != nil {
			ref.Host = n.Guest.Host()
		}
		refs = append(refs, ref)
	}
	return refs
}

// watchService (re-)registers a service with the accountant. Called when
// a service turns Active and again after every resize; the accountant
// preserves accumulated usage across re-watches.
func (m *Master) watchService(svc *Service) {
	if m.acct == nil {
		return
	}
	cfg := accounting.WatchConfig{
		Service: svc.Spec.Name,
		SLO:     svc.Spec.SLO,
		Nodes:   nodeRefs(svc),
		Net:     m.net,
		Reserved: func() accounting.ReservedResources {
			k := svc.TotalCapacity()
			mc := svc.Spec.Requirement.M
			return accounting.ReservedResources{
				CPUMHz:   float64(mc.CPUMHz * k),
				MemoryMB: float64(mc.MemoryMB * k),
				DiskMB:   float64(mc.DiskMB * k),
			}
		},
	}
	if sw := svc.Switch; sw != nil {
		cfg.Latency = sw.LatencyHistogram()
		cfg.Routed = func() int64 { return int64(sw.Routed()) }
		cfg.Dropped = func() int64 { return int64(sw.Dropped()) }
	}
	m.acct.Watch(cfg)
}

// Tracer returns the Master's span tracer (nil when uninstrumented).
func (m *Master) Tracer() *telemetry.Tracer { return m.tracer }

// Registry returns the Master's metrics registry (nil when
// uninstrumented).
func (m *Master) Registry() *telemetry.Registry { return m.reg }

// Daemons returns the Master's daemon table.
func (m *Master) Daemons() []*Daemon { return m.daemons }

// Service returns the named hosted service.
func (m *Master) Service(name string) (*Service, bool) {
	s, ok := m.services[name]
	return s, ok
}

// Services returns all hosted service names, sorted.
func (m *Master) Services() []string {
	out := make([]string, 0, len(m.services))
	for n := range m.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CollectAvailability gathers resource information from every daemon
// (§3.2: "The SODA Master collects resource information from SODA Daemons
// running in each HUP host").
func (m *Master) CollectAvailability() []HostAvail {
	out := make([]HostAvail, 0, len(m.daemons))
	for i, d := range m.daemons {
		// Crash-stopped hosts report nothing; hosts the failure detector
		// has confirmed dead are skipped even before their daemon object
		// is marked (the collection itself would time out on the real
		// testbed). Index stays the true daemon index.
		if d.Crashed() {
			continue
		}
		if m.health != nil && m.health.hosts[i].state == HostDead {
			continue
		}
		out = append(out, HostAvail{Index: i, HostName: d.Host().Spec.Name, Avail: d.Availability()})
	}
	return out
}

// CreateService admits and creates a service: allocation, parallel
// priming on the chosen hosts, then switch creation. onDone fires with
// the active service once every node is up; onErr fires on admission
// failure or if any priming step fails (already-primed nodes are rolled
// back).
func (m *Master) CreateService(spec ServiceSpec, onDone func(*Service), onErr func(error)) {
	if m.halted {
		if onErr != nil {
			onErr(fmt.Errorf("soda: master is down"))
		}
		return
	}
	root := m.tracer.StartRoot("service.create", telemetry.L("service", spec.Name))
	flog := m.flog.WithTrace(root.TraceID())
	fail := func(err error) {
		m.Rejected++
		m.rejectedCtr.Inc()
		m.journal("service-rejected", jName{Service: spec.Name})
		m.emit(EventRejected, spec.Name, "", err.Error())
		flog.Error("service rejected",
			telemetry.L("service", spec.Name), telemetry.L("error", err.Error()))
		root.Fail(err)
		if onErr != nil {
			onErr(err)
		}
	}
	admission := root.StartChild("admission")
	if err := spec.Validate(); err != nil {
		admission.Fail(err)
		fail(err)
		return
	}
	if _, dup := m.services[spec.Name]; dup {
		err := fmt.Errorf("soda: service %q already hosted", spec.Name)
		admission.Fail(err)
		fail(err)
		return
	}
	placements, err := AllocateWith(m.Strategy, m.CollectAvailability(), spec.Requirement, m.Factor)
	if err != nil {
		admission.Fail(err)
		fail(err)
		return
	}
	admission.Annotate("placements", fmt.Sprintf("%d", len(placements)))
	admission.EndSpan()
	m.Admitted++
	m.admittedCtr.Inc()
	if m.cluster != nil {
		m.cluster.cacheSpec(spec)
	}
	svc := &Service{
		Spec:       spec,
		State:      Priming,
		Config:     svcswitch.NewConfigFile(spec.Name),
		nodeDaemon: make(map[string]int),
	}
	m.services[spec.Name] = svc
	m.armAutoscaler(spec)
	m.activeServices.Set(float64(len(m.services)))
	m.journal("service-admitted", specOf(spec))
	m.emit(EventAdmitted, spec.Name, "",
		fmt.Sprintf("<%d, M> over %d node(s), strategy %v", spec.Requirement.N, len(placements), m.Strategy))
	flog.Info("service admitted",
		telemetry.L("service", spec.Name),
		telemetry.L("placements", fmt.Sprint(len(placements))))

	m.primePlacements(svc, placements, root, func(failed bool) {
		if failed {
			m.rollback(svc)
			fail(fmt.Errorf("soda: priming failed for service %q", spec.Name))
			return
		}
		build := root.StartChild("switch.build")
		if err := m.buildSwitch(svc); err != nil {
			build.Fail(err)
			m.rollback(svc)
			fail(err)
			return
		}
		build.EndSpan()
		svc.State = Active
		m.journal("service-active", jName{Service: spec.Name})
		root.EndSpan()
		m.watchService(svc)
		m.emit(EventServiceActive, spec.Name, "",
			fmt.Sprintf("switch on %s, policy %s", svc.Nodes[0].NodeName, svc.Switch.Policy().Name()))
		flog.Info("service active",
			telemetry.L("service", spec.Name),
			telemetry.L("switch", svc.Nodes[0].NodeName))
		if onDone != nil {
			onDone(svc)
		}
	})
}

// primePlacements fans the priming commands out to the chosen daemons,
// fills svc.Nodes (sorted by node name), and reports whether any node
// failed. It is shared by CreateService and CreatePartitionedService.
// Each placement becomes a "prime" child span of parent (nil parent =
// untraced), whose grandchildren — image.download, guest.boot,
// service.bootstrap — are filled in by the daemon and uml.Boot.
func (m *Master) primePlacements(svc *Service, placements []Placement, parent *telemetry.Span, onFinish func(failed bool)) {
	spec := svc.Spec
	remaining := len(placements)
	failed := false
	var nodes []NodeInfo
	finishOne := func() {
		remaining--
		if remaining > 0 {
			return
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].NodeName < nodes[j].NodeName })
		svc.Nodes = append(svc.Nodes, nodes...)
		onFinish(failed)
	}

	for _, pl := range placements {
		pl := pl
		d := m.daemons[pl.Index]
		nodeName := fmt.Sprintf("%s-%d", spec.Name, svc.nextNodeID)
		svc.nextNodeID++
		svc.nodeDaemon[nodeName] = pl.Index
		prime := parent.StartChild("prime",
			telemetry.L("node", nodeName), telemetry.L("host", d.Host().Spec.Name))
		// The priming command crosses the LAN to the daemon (§3.2: the
		// Master "will then contact the SODA Daemons running in the
		// selected HUP hosts").
		err := m.net.Transfer(m.IP, d.HostIP, 1024, func() {
			d.Prime(PrimeRequest{
				ServiceName:  spec.Name,
				NodeName:     nodeName,
				ImageName:    spec.ImageName,
				Repository:   spec.Repository,
				M:            spec.Requirement.M,
				Instances:    pl.Instances,
				Factor:       m.Factor,
				GuestProfile: spec.GuestProfile,
				Port:         servicePort(spec),
				FanOut:       len(placements),
				Span:         prime,
				Epoch:        m.epoch,
			}, func(info NodeInfo) {
				prime.EndSpan()
				m.journal("node-primed", jNodePrimed{
					jNode:  jNodeOf(spec.Name, info, pl.Index),
					NextID: svc.nextNodeID,
				})
				m.emit(EventNodePrimed, spec.Name, info.NodeName,
					fmt.Sprintf("%s ip=%s cap=%d download=%.1fs boot=%.1fs",
						info.HostName, info.IP, info.Capacity,
						info.DownloadTime.Seconds(), info.BootTime.Seconds()))
				nodes = append(nodes, info)
				finishOne()
			}, func(err error) {
				prime.Fail(err)
				failed = true
				delete(svc.nodeDaemon, nodeName)
				finishOne()
			})
		})
		if err != nil {
			prime.Fail(err)
			failed = true
			delete(svc.nodeDaemon, nodeName)
			finishOne()
		}
	}
}

func servicePort(spec ServiceSpec) int {
	if spec.Port > 0 {
		return spec.Port
	}
	return 8080
}

// buildSwitch creates the service switch co-located in the first node
// (§3.4) and populates the service configuration file.
func (m *Master) buildSwitch(svc *Service) error {
	if len(svc.Nodes) == 0 {
		return fmt.Errorf("soda: service %q has no nodes for a switch", svc.Spec.Name)
	}
	entries := make([]svcswitch.BackendEntry, len(svc.Nodes))
	for i, n := range svc.Nodes {
		entries[i] = svcswitch.BackendEntry{IP: n.IP, Port: n.Port, Capacity: n.Capacity}
	}
	if err := svc.Config.SetEntries(entries); err != nil {
		return err
	}
	if svc.Spec.SLO.Enabled() {
		if err := svc.Config.SetSLO(svc.Spec.SLO); err != nil {
			return err
		}
	}
	if svc.Spec.Autoscale.Enabled() {
		svc.Config.SetAutoscale(svc.Spec.Autoscale.String())
	}
	home := &appsvc.GuestBackend{G: svc.Nodes[0].Guest}
	svc.Switch = svcswitch.New(m.net, home, svc.Config)
	if m.reg != nil {
		svc.Switch.Instrument(m.reg)
	}
	if m.flog != nil {
		svc.Switch.SetLogger(m.flog.Component("switch", telemetry.L("service", svc.Spec.Name)))
	}
	if m.reqTraces != nil {
		m.attachRequestTracer(svc)
	}
	if svc.Spec.SwitchPolicy != nil {
		svc.Switch.SetPolicy(svc.Spec.SwitchPolicy)
	}
	if m.health != nil {
		svc.Switch.SetHealth(svcswitch.HealthConfig{
			EjectAfter: m.health.cfg.EjectAfter,
			ProbeAfter: m.health.cfg.ProbeAfter,
		})
	}
	if svc.Spec.Behavior != nil {
		for i, n := range svc.Nodes {
			if h := svc.Spec.Behavior(n.Guest); h != nil {
				svc.Switch.Bind(entries[i], h)
			}
		}
	}
	m.homeSwitch(svc, svc.Nodes[0].NodeName)
	return nil
}

// homeSwitch records that the service switch now runs in the named node:
// the hosting daemon adopts the live switch object (so it can hand it to
// a new leader during resynchronization) and the adoption is journaled.
func (m *Master) homeSwitch(svc *Service, nodeName string) {
	if di, ok := svc.nodeDaemon[nodeName]; ok {
		for _, d := range m.daemons {
			d.DropSwitch(svc.Spec.Name)
		}
		m.daemons[di].AdoptSwitch(svc.Spec.Name, svc.Switch, svc.Config)
	}
	m.journal("switch-homed", jNodeRef{Service: svc.Spec.Name, Name: nodeName})
}

// rollback tears down whatever priming already produced.
func (m *Master) rollback(svc *Service) {
	for nodeName, di := range svc.nodeDaemon {
		// Nodes that never finished priming are cleaned up by the daemon
		// itself; Teardown only finds the finished ones.
		_ = m.daemons[di].TeardownAs(m.epoch, nodeName)
	}
	svc.State = TornDown
	delete(m.services, svc.Spec.Name)
	delete(m.autos, svc.Spec.Name)
	m.journal("service-removed", jName{Service: svc.Spec.Name})
	m.activeServices.Set(float64(len(m.services)))
	m.flog.Warn("priming rolled back", telemetry.L("service", svc.Spec.Name))
}

// TeardownService removes a hosted service entirely —
// SODA_service_teardown (§4.1).
func (m *Master) TeardownService(name string) error {
	if m.halted {
		return fmt.Errorf("soda: master is down")
	}
	svc, ok := m.services[name]
	if !ok {
		return fmt.Errorf("soda: no service %q", name)
	}
	sp := m.tracer.StartRoot("service.teardown", telemetry.L("service", name))
	for _, n := range svc.Nodes {
		di := svc.nodeDaemon[n.NodeName]
		d := m.daemons[di]
		if d.Crashed() {
			// A crash-stopped host can't execute teardown — its guests are
			// already dead and Restore sweeps the bookkeeping. Removing the
			// service must not fail on it.
			continue
		}
		if err := d.TeardownAs(m.epoch, n.NodeName); err != nil {
			sp.Fail(err)
			return err
		}
	}
	for _, d := range m.daemons {
		d.DropSwitch(name)
	}
	svc.State = TornDown
	delete(m.services, name)
	delete(m.autos, name)
	m.journal("service-torndown", jName{Service: name})
	if m.acct != nil {
		if u, watched := m.acct.Unwatch(name); watched {
			m.settled[name] = u
			m.journal("usage-settled", jSettled{Service: name, Usage: u})
		}
	}
	m.activeServices.Set(float64(len(m.services)))
	m.tornDownCtr.Inc()
	m.emit(EventTornDown, name, "", "")
	m.flog.WithTrace(sp.TraceID()).Info("service torn down", telemetry.L("service", name))
	sp.EndSpan()
	return nil
}
