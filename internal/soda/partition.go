package soda

import (
	"fmt"
	"sort"

	"repro/internal/appsvc"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// The partitionable-services extension. §3.5 names it as future work:
// "a more flexible service image mapping is desirable … for example, a
// partitionable service where different service components are mapped to
// different virtual service nodes." Here each component ships its own
// image and <n, M>, gets its own nodes, and one shared service switch
// routes requests by component.

// ComponentSpec describes one component of a partitioned service.
type ComponentSpec struct {
	// Component names the partition ("catalog", "checkout").
	Component string
	// ImageName and Repository locate the component's image.
	ImageName  string
	Repository simnet.IP
	// Requirement is the component's own <n, M>.
	Requirement Requirement
	// GuestProfile is the component image's guest-OS configuration.
	GuestProfile []string
	// Behavior wires the component's request handling after boot.
	Behavior Behavior
	// Port is the component's listen port (0 = 8080).
	Port int
}

// Validate reports the first problem with the component, or nil.
func (c ComponentSpec) Validate() error {
	switch {
	case c.Component == "":
		return fmt.Errorf("soda: component without a name")
	case c.ImageName == "":
		return fmt.Errorf("soda: component %s without an image", c.Component)
	case c.Repository == "":
		return fmt.Errorf("soda: component %s without a repository", c.Component)
	}
	return c.Requirement.Validate()
}

// PartitionedService is a hosted service whose components run on
// disjoint node sets behind one switch.
type PartitionedService struct {
	Name string
	// Components maps component name → its underlying per-component
	// service record (nodes, daemons, reservations).
	Components map[string]*Service
	// Config is the shared, component-tagged configuration file.
	Config *svcswitch.ConfigFile
	// Switch routes requests by Request.Component.
	Switch *svcswitch.Switch
}

// ComponentNames returns the component names, sorted.
func (p *PartitionedService) ComponentNames() []string {
	out := make([]string, 0, len(p.Components))
	for n := range p.Components {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalCapacity sums all components' machine instances.
func (p *PartitionedService) TotalCapacity() int {
	var total int
	for _, svc := range p.Components {
		var sum int
		for _, n := range svc.Nodes {
			sum += n.Capacity
		}
		total += sum
	}
	return total
}

// CreatePartitionedService admits and creates a partitioned service:
// each component is allocated and primed like a fully replicated service
// (admission considers them in order, so either all components fit or
// the whole request fails and rolls back), then a single switch is
// created on the first component's first node with a component-tagged
// configuration file.
func (m *Master) CreatePartitionedService(name string, comps []ComponentSpec, onDone func(*PartitionedService), onErr func(error)) {
	root := m.tracer.StartRoot("service.create-partitioned", telemetry.L("service", name))
	fail := func(err error) {
		m.Rejected++
		m.rejectedCtr.Inc()
		m.journal("service-rejected", jName{Service: name})
		root.Fail(err)
		if onErr != nil {
			onErr(err)
		}
	}
	if m.halted {
		root.Fail(fmt.Errorf("soda: master is down"))
		if onErr != nil {
			onErr(fmt.Errorf("soda: master is down"))
		}
		return
	}
	if name == "" {
		fail(fmt.Errorf("soda: partitioned service without a name"))
		return
	}
	if len(comps) == 0 {
		fail(fmt.Errorf("soda: partitioned service %q with no components", name))
		return
	}
	seen := make(map[string]bool, len(comps))
	for _, c := range comps {
		if err := c.Validate(); err != nil {
			fail(err)
			return
		}
		if seen[c.Component] {
			fail(fmt.Errorf("soda: duplicate component %q", c.Component))
			return
		}
		seen[c.Component] = true
		if _, dup := m.services[name+"/"+c.Component]; dup {
			fail(fmt.Errorf("soda: service %q already hosted", name+"/"+c.Component))
			return
		}
	}
	m.Admitted++
	m.admittedCtr.Inc()
	m.journal("request-admitted", jName{Service: name})

	ps := &PartitionedService{
		Name:       name,
		Components: make(map[string]*Service, len(comps)),
		Config:     svcswitch.NewConfigFile(name),
	}
	// Create components sequentially: each allocation sees the
	// reservations of the previous ones, so the admission decision is
	// sound for the whole set.
	var createNext func(i int)
	createNext = func(i int) {
		if i == len(comps) {
			build := root.StartChild("switch.build")
			if err := m.buildPartitionedSwitch(ps, comps); err != nil {
				build.Fail(err)
				m.teardownPartitioned(ps)
				fail(err)
				return
			}
			build.EndSpan()
			root.EndSpan()
			if onDone != nil {
				onDone(ps)
			}
			return
		}
		c := comps[i]
		subName := name + "/" + c.Component
		comp := root.StartChild("component", telemetry.L("component", c.Component))
		placements, err := AllocateWith(m.Strategy, m.CollectAvailability(), c.Requirement, m.Factor)
		if err != nil {
			comp.Fail(err)
			m.teardownPartitioned(ps)
			fail(fmt.Errorf("soda: component %q: %w", c.Component, err))
			return
		}
		svc := &Service{
			Spec: ServiceSpec{
				Name:         subName,
				ImageName:    c.ImageName,
				Repository:   c.Repository,
				Requirement:  c.Requirement,
				GuestProfile: c.GuestProfile,
				Behavior:     c.Behavior,
				Port:         c.Port,
			},
			State:      Priming,
			Config:     svcswitch.NewConfigFile(subName),
			nodeDaemon: make(map[string]int),
		}
		m.services[subName] = svc
		if m.cluster != nil {
			m.cluster.cacheSpec(svc.Spec)
		}
		m.journal("component-admitted", specOf(svc.Spec))
		m.primeNodes(svc, placements, comp, "prime", func(info NodeInfo) {
			m.emitNodePrimed(subName, info)
		}, func(unplaced int, _ error) {
			if unplaced > 0 {
				comp.Fail(fmt.Errorf("priming failed"))
				m.rollback(svc)
				m.teardownPartitioned(ps)
				fail(fmt.Errorf("soda: priming failed for component %q", c.Component))
				return
			}
			comp.EndSpan()
			svc.State = Active
			m.journal("service-active", jName{Service: subName})
			if len(svc.Nodes) > 0 {
				// The shared switch homes on the first component's first
				// node; record each component's anchor so replayed state
				// carries the same home metadata as a live capture.
				m.journal("switch-homed", jNodeRef{Service: subName, Name: svc.Nodes[0].NodeName})
			}
			ps.Components[c.Component] = svc
			createNext(i + 1)
		})
	}
	createNext(0)
}

// buildPartitionedSwitch assembles the shared switch and tagged config.
func (m *Master) buildPartitionedSwitch(ps *PartitionedService, comps []ComponentSpec) error {
	var entries []svcswitch.BackendEntry
	for _, c := range comps {
		svc := ps.Components[c.Component]
		for _, n := range svc.Nodes {
			entries = append(entries, svcswitch.BackendEntry{
				IP: n.IP, Port: n.Port, Capacity: n.Capacity, Component: c.Component,
			})
		}
	}
	if err := ps.Config.SetEntries(entries); err != nil {
		return err
	}
	first := ps.Components[comps[0].Component]
	if len(first.Nodes) == 0 {
		return fmt.Errorf("soda: partitioned service %q has no nodes", ps.Name)
	}
	home := &appsvc.GuestBackend{G: first.Nodes[0].Guest}
	ps.Switch = svcswitch.New(m.net, home, ps.Config)
	if m.reg != nil {
		ps.Switch.Instrument(m.reg)
	}
	for _, c := range comps {
		if c.Behavior == nil {
			continue
		}
		svc := ps.Components[c.Component]
		for _, n := range svc.Nodes {
			if h := c.Behavior(n.Guest); h != nil {
				ps.Switch.Bind(svcswitch.BackendEntry{
					IP: n.IP, Port: n.Port, Capacity: n.Capacity, Component: c.Component,
				}, h)
			}
		}
	}
	return nil
}

// teardownPartitioned removes every component already created.
func (m *Master) teardownPartitioned(ps *PartitionedService) {
	for _, svc := range ps.Components {
		_ = m.TeardownService(svc.Spec.Name)
	}
}

// TeardownPartitionedService removes a partitioned service entirely.
func (m *Master) TeardownPartitionedService(ps *PartitionedService) error {
	for _, comp := range ps.ComponentNames() {
		if err := m.TeardownService(ps.Components[comp].Spec.Name); err != nil {
			return err
		}
	}
	ps.Components = map[string]*Service{}
	return nil
}
