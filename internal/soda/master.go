package soda

import (
	"fmt"
	"sort"
	"strings"

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
	observers []Observer

	// state is the Master's logical state, changed only by commit (see
	// state.go). services holds the live handles of the services it
	// names: guests, switches, configuration files and in-flight primes.
	state    *masterState
	services map[string]*Service

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

	// autos holds the live signal taps of each armed autoscaler (see
	// autoscale.go); the controllers' runtime state is in state.
	autos map[string]*autoscaler

	// High availability (see ha.go). jlog is the write-ahead journal
	// commit appends every record to; nil for unclustered masters and for
	// a fenced old leader. halted marks a crash-stopped Master process;
	// snapEvery is the journal compaction threshold.
	jlog      *journal.Log
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
	Spec ServiceSpec
	// Nodes are the created virtual service nodes, switch host first.
	Nodes []NodeInfo
	// Config is the service configuration file inside the switch,
	// created and maintained by the Master.
	Config *svcswitch.ConfigFile
	// Switch routes client requests to the nodes.
	Switch *svcswitch.Switch

	// m is the Master whose state holds the service's logical record.
	m *Master
	// component tags the service's rows in Config when it is a component
	// of a partitioned service, sharing Config and Switch with its
	// siblings; empty for a plain service.
	component string
	// priming binds each node still being primed to its daemon index;
	// nextNodeID names the next one. A primed node's binding is in the
	// state, and only a primed node advances the state's next node ID.
	priming    map[string]int
	nextNodeID int
}

// record returns the service's logical record, or nil once it is gone
// from its Master.
func (s *Service) record() *jServiceState {
	if s.m.services[s.Spec.Name] != s {
		return nil
	}
	return s.m.state.service(s.Spec.Name)
}

// State returns the service's lifecycle state.
func (s *Service) State() ServiceState {
	if js := s.record(); js != nil {
		return ServiceState(js.State)
	}
	return TornDown
}

// daemonOf returns the index of the daemon that hosts — or is priming —
// the named node.
func (s *Service) daemonOf(node string) (int, bool) {
	if js := s.record(); js != nil {
		if n := js.node(node); n != nil {
			return n.Daemon, true
		}
	}
	di, ok := s.priming[node]
	return di, ok
}

// TotalCapacity returns the service's current machine-instance count:
// the capacity of its rows in the configuration file.
func (s *Service) TotalCapacity() int {
	if s.component == "" {
		return s.Config.TotalCapacity()
	}
	total := 0
	for _, e := range s.Config.EntriesFor(s.component) {
		total += e.Capacity
	}
	return total
}

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
		state:    &masterState{},
		services: make(map[string]*Service),
		autos:    make(map[string]*autoscaler),
	}, nil
}

// Admitted counts admitted creation requests; a partitioned request
// counts one admission per component.
func (m *Master) Admitted() int { return m.state.Admitted }

// Rejected counts refused creation requests.
func (m *Master) Rejected() int { return m.state.Rejected }

// Instrument connects the Master — and every switch it subsequently
// creates — to a metrics registry and span tracer. Both may be nil
// (no-op). Daemons are instrumented separately (hup.New wires the
// whole control plane). Spans stay in the tracer; events name the trace
// they belong to, so the two streams never restate each other.
func (m *Master) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	m.reg = reg
	m.tracer = tracer
	m.admittedCtr = reg.Counter("soda_master_admitted_total")
	m.rejectedCtr = reg.Counter("soda_master_rejected_total")
	m.tornDownCtr = reg.Counter("soda_master_torndown_total")
	m.activeServices = reg.Gauge("soda_master_services")
	m.autoUpCtr = reg.Counter("soda_autoscale_up_total")
	m.autoDownCtr = reg.Counter("soda_autoscale_down_total")
	m.autoBlockedCtr = reg.Counter("soda_autoscale_blocked_total")
}

// mustAttach enforces the attach-once rule for the Master's subsystems
// (flight logger, accounting, request tracing, health, chunk
// distribution, cluster): each is attached at most once, and before the
// first service is admitted, so no attach has to retrofit live services
// or switches. It panics naming the call otherwise.
func (m *Master) mustAttach(call string, attached bool) {
	switch {
	case attached:
		panic("soda: " + call + " called twice")
	case m.state.Admitted > 0:
		panic("soda: " + call + " after the first service; attach subsystems before creating services")
	}
}

// SetFlightLogger routes the Master's structured diagnostics — and those
// of every switch it creates and every daemon it drives — into the
// flight recorder. Attach once, before the first service.
func (m *Master) SetFlightLogger(l *flight.Logger) {
	m.mustAttach("SetFlightLogger", m.flog != nil)
	m.flog = l.Component("master")
	for _, d := range m.daemons {
		d.SetFlightLogger(l)
	}
	if m.acct != nil {
		m.acct.SetLogger(l.Component("accounting"))
	}
}

// EnableAccounting attaches the usage-metering and SLO-evaluation
// subsystem: services are watched on activation, resizes re-watch with
// the new node set, teardowns settle the final bill, and violations
// surface as EventSLOViolation to the Master's observers. Attach once,
// before the first service.
func (m *Master) EnableAccounting(a *accounting.Accountant) {
	m.mustAttach("EnableAccounting", m.acct != nil)
	m.acct = a
	if m.flog != nil {
		a.SetLogger(m.flog.Component("accounting"))
	}
	a.OnViolation(func(v accounting.Violation) {
		m.currentLeader().emit(EventSLOViolation, v.Trace, v.Service, "", v.Detail)
	})
}

// EnableRequestTracing attaches the tail-sampling request-trace store:
// every switch the Master creates gets a per-service collector, its
// slow-retention threshold derived from the service's SLO latency
// target. Attach once, before the first service.
func (m *Master) EnableRequestTracing(st *reqtrace.Store) {
	m.mustAttach("EnableRequestTracing", m.reqTraces != nil)
	m.reqTraces = st
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
	i, ok := m.state.settledAt(name)
	if !ok {
		return accounting.Usage{}, false
	}
	u := m.state.Settled[i].Usage
	m.commit("usage-claimed", jName{Service: name})
	return u, true
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
	m.createServices(spec.Name, []ServiceSpec{spec}, func(svcs []*Service) {
		if onDone != nil {
			onDone(svcs[0])
		}
	}, onErr)
}

// createServices creates services that share one switch and one
// configuration file named file: a plain service alone (file is its
// name), or the components of a partitioned service (see partition.go),
// each tagged in the file by componentTag. The services are admitted and
// primed in order, so each allocation sees the reservations made before
// it. Once the last is primed, the switch is built and every service
// turns Active. A failure rolls back every service admitted so far and
// rejects the one that failed.
func (m *Master) createServices(file string, specs []ServiceSpec, onDone func([]*Service), onErr func(error)) {
	if m.halted {
		if onErr != nil {
			onErr(fmt.Errorf("soda: master is down"))
		}
		return
	}
	cfg := svcswitch.NewConfigFile(file)
	var svcs []*Service
	var roots []*telemetry.Span
	var admit func(i int)
	admit = func(i int) {
		spec := specs[i]
		root := m.tracer.StartRoot("service.create", telemetry.L("service", spec.Name))
		roots = append(roots, root)
		fail := func(err error) {
			for _, svc := range svcs {
				m.rollback(svc)
			}
			for _, r := range roots[:i] {
				r.Fail(err)
			}
			m.reject(spec.Name, err, root, onErr)
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
		m.admittedCtr.Inc()
		if m.cluster != nil {
			m.cluster.cacheSpec(spec)
		}
		svc := &Service{
			Spec:      spec,
			Config:    cfg,
			m:         m,
			component: componentTag(spec.Name, file),
			priming:   make(map[string]int),
		}
		m.services[spec.Name] = svc
		svcs = append(svcs, svc)
		m.activeServices.Set(float64(len(m.services)))
		m.commit("service-admitted", specOf(spec))
		m.emit(EventAdmitted, root.TraceID(), spec.Name, "",
			fmt.Sprintf("<%d, M> over %d node(s), strategy %v", spec.Requirement.N, len(placements), m.Strategy))

		m.primeNodes(svc, placements, root, "prime", func(info NodeInfo) {
			m.emit(EventNodePrimed, root.TraceID(), spec.Name, info.NodeName,
				fmt.Sprintf("%s ip=%s cap=%d download=%.1fs boot=%.1fs",
					info.HostName, info.IP, info.Capacity,
					info.DownloadTime.Seconds(), info.BootTime.Seconds()))
		}, func(unplaced int, _ error) {
			if unplaced > 0 {
				fail(fmt.Errorf("soda: priming failed for service %q", spec.Name))
				return
			}
			if i+1 < len(specs) {
				admit(i + 1)
				return
			}
			build := root.StartChild("switch.build")
			if err := m.buildSwitch(svcs...); err != nil {
				build.Fail(err)
				fail(err)
				return
			}
			build.EndSpan()
			home := svcs[0].Nodes[0].NodeName
			for j, s := range svcs {
				m.commit("service-active", jName{Service: s.Spec.Name})
				roots[j].EndSpan()
				m.watchService(s)
				m.emit(EventServiceActive, roots[j].TraceID(), s.Spec.Name, "",
					fmt.Sprintf("switch on %s, policy %s", home, s.Switch.Policy().Name()))
			}
			if onDone != nil {
				onDone(svcs)
			}
		})
	}
	admit(0)
}

// reject counts, journals and announces a refused creation request, then
// reports err.
func (m *Master) reject(name string, err error, root *telemetry.Span, onErr func(error)) {
	m.rejectedCtr.Inc()
	m.commit("service-rejected", jName{Service: name})
	m.emit(EventRejected, root.TraceID(), name, "", err.Error())
	root.Fail(err)
	if onErr != nil {
		onErr(err)
	}
}

// primeNodes primes one new virtual service node per placement — the
// one fan-out behind creation, growth and self-healing (§3.2: the Master
// "will then contact the SODA Daemons running in the selected HUP
// hosts"; §3.4: resizing may "add ... virtual service node(s)"). Each
// placement gets the service's next node name and a 1 KB command
// transfer to its daemon; under a non-nil parent it also gets a spanName
// child span, whose grandchildren — image.download, guest.boot,
// service.bootstrap — are filled in by the daemon and uml.Boot.
//
// A node of a service still Priming joins svc.Nodes only once every
// placement has reported, sorted by name, so the switch homes on the
// lowest-named node; a node of a live service joins at once. Either way
// node-primed is committed, and then onPrimed runs: the caller's event,
// switch binding or re-homing. A placement holds its daemon binding in
// svc.priming until it is committed or fails. onFinish reports the
// instances left unplaced and the last error.
func (m *Master) primeNodes(svc *Service, placements []Placement, parent *telemetry.Span, spanName string,
	onPrimed func(NodeInfo), onFinish func(unplaced int, err error)) {
	spec := svc.Spec
	creating := svc.State() == Priming
	remaining := len(placements)
	unplaced := 0
	var lastErr error
	var created []NodeInfo
	finishOne := func() {
		remaining--
		if remaining > 0 {
			return
		}
		sort.Slice(created, func(i, j int) bool { return created[i].NodeName < created[j].NodeName })
		svc.Nodes = append(svc.Nodes, created...)
		onFinish(unplaced, lastErr)
	}

	for _, pl := range placements {
		pl := pl
		d := m.daemons[pl.Index]
		nodeName := fmt.Sprintf("%s-%d", spec.Name, svc.nextNodeID)
		svc.nextNodeID++
		svc.priming[nodeName] = pl.Index
		prime := parent.StartChild(spanName,
			telemetry.L("node", nodeName), telemetry.L("host", d.Host().Spec.Name))
		fail := func(err error) {
			prime.Fail(err)
			delete(svc.priming, nodeName)
			unplaced += pl.Instances
			lastErr = err
			finishOne()
		}
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
				Epoch:        m.state.Epoch,
			}, func(info NodeInfo) {
				prime.EndSpan()
				delete(svc.priming, nodeName)
				if creating {
					created = append(created, info)
				} else {
					svc.Nodes = append(svc.Nodes, info)
				}
				m.commit("node-primed", jNodePrimed{
					jNode:  jNodeOf(spec.Name, info, pl.Index),
					NextID: svc.nextNodeID,
				})
				onPrimed(info)
				finishOne()
			}, fail)
		})
		if err != nil {
			fail(err)
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
// (§3.4) and populates the service configuration file. The components
// of a partitioned service share the one switch, homed on the first
// component's first node, and the one file, their rows tagged by
// component.
func (m *Master) buildSwitch(svcs ...*Service) error {
	lead := svcs[0]
	if len(lead.Nodes) == 0 {
		return fmt.Errorf("soda: service %q has no nodes for a switch", lead.Spec.Name)
	}
	var entries []svcswitch.BackendEntry
	for _, svc := range svcs {
		for _, n := range svc.Nodes {
			entries = append(entries, svc.entry(n))
		}
	}
	cfg := lead.Config
	if err := cfg.SetEntries(entries); err != nil {
		return err
	}
	if lead.Spec.SLO.Enabled() {
		if err := cfg.SetSLO(lead.Spec.SLO); err != nil {
			return err
		}
	}
	if lead.Spec.Autoscale.Enabled() {
		cfg.SetAutoscale(lead.Spec.Autoscale.String())
	}
	home := &appsvc.GuestBackend{G: lead.Nodes[0].Guest}
	sw := svcswitch.New(m.net, home, cfg)
	if m.reg != nil {
		sw.Instrument(m.reg)
	}
	if m.flog != nil {
		sw.SetLogger(m.flog.Component("switch", telemetry.L("service", lead.Spec.Name)))
	}
	if m.reqTraces != nil {
		c := m.reqTraces.Collector(lead.Spec.Name)
		if slo := cfg.SLO(); slo.LatencyTarget > 0 {
			c.SetSlowThreshold(slo.LatencyTarget)
		}
		sw.SetRequestTracer(c)
	}
	if lead.Spec.SwitchPolicy != nil {
		sw.SetPolicy(lead.Spec.SwitchPolicy)
	}
	if m.health != nil {
		sw.SetHealth(svcswitch.HealthConfig{
			EjectAfter: ejectAfter,
			ProbeAfter: m.health.cfg.ProbeAfter,
		})
	}
	for _, svc := range svcs {
		svc.Switch = sw
		for _, n := range svc.Nodes {
			svc.bind(n)
		}
		m.homeSwitch(svc, svc.Nodes[0].NodeName)
	}
	return nil
}

// componentTag is the tag a service's rows carry in the configuration
// file named file: none for a plain service, whose file bears its own
// name, and "catalog" for component "shop/catalog" of the partitioned
// service "shop".
func componentTag(service, file string) string {
	if service == file {
		return ""
	}
	return strings.TrimPrefix(service, file+"/")
}

// entry is a node's row in the service configuration file, tagged with
// the service's component.
func (s *Service) entry(n NodeInfo) svcswitch.BackendEntry {
	return svcswitch.BackendEntry{IP: n.IP, Port: n.Port, Capacity: n.Capacity, Component: s.component}
}

// bind wires a node's request handling (Spec.Behavior) into the
// service switch under the node's row — for a partitioned component,
// the switch its sibling components share.
func (s *Service) bind(n NodeInfo) {
	if s.Spec.Behavior == nil || s.Switch == nil {
		return
	}
	if h := s.Spec.Behavior(n.Guest); h != nil {
		s.Switch.Bind(s.entry(n), h)
	}
}

// homeSwitch records that the service switch now runs in the named node:
// the hosting daemon adopts the live switch object (so it can hand it to
// a new leader during resynchronization) and the adoption is committed.
func (m *Master) homeSwitch(svc *Service, nodeName string) {
	if di, ok := svc.daemonOf(nodeName); ok {
		for _, d := range m.daemons {
			d.DropSwitch(svc.Spec.Name)
		}
		m.daemons[di].AdoptSwitch(svc.Spec.Name, svc.Switch, svc.Config)
	}
	m.commit("switch-homed", jNodeRef{Service: svc.Spec.Name, Name: nodeName})
}

// rollback tears down whatever priming already produced, in node-name
// order. It runs once every placement has reported, so the primed nodes
// are the committed ones; a failed placement's daemon cleaned up itself.
func (m *Master) rollback(svc *Service) {
	if js := svc.record(); js != nil { // nil when torn down mid-priming
		for _, n := range js.Nodes {
			_ = m.daemons[n.Daemon].Teardown(m.state.Epoch, n.Name)
		}
	}
	delete(m.services, svc.Spec.Name)
	delete(m.autos, svc.Spec.Name)
	m.commit("service-removed", jName{Service: svc.Spec.Name})
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
		di, _ := svc.daemonOf(n.NodeName)
		d := m.daemons[di]
		if d.Crashed() {
			// A crash-stopped host can't execute teardown — its guests are
			// already dead and Restore sweeps the bookkeeping. Removing the
			// service must not fail on it.
			continue
		}
		if err := d.Teardown(m.state.Epoch, n.NodeName); err != nil {
			sp.Fail(err)
			return err
		}
	}
	for _, d := range m.daemons {
		d.DropSwitch(name)
	}
	delete(m.services, name)
	delete(m.autos, name)
	m.commit("service-torndown", jName{Service: name})
	if m.acct != nil {
		if u, watched := m.acct.Unwatch(name); watched {
			m.commit("usage-settled", jSettled{Service: name, Usage: u})
		}
	}
	m.activeServices.Set(float64(len(m.services)))
	m.tornDownCtr.Inc()
	m.emit(EventTornDown, sp.TraceID(), name, "", "")
	sp.EndSpan()
	return nil
}
