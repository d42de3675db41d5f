package soda

import (
	"fmt"
	"sort"

	"repro/internal/simnet"
	"repro/internal/svcswitch"
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
		total += svc.TotalCapacity()
	}
	return total
}

// CreatePartitionedService admits and creates a partitioned service.
// Each component is an ordinary service named "<name>/<component>":
// admitted, primed, metered, healed and resized like any other. The
// components are created in order, so each allocation sees the
// reservations made before it, and if one fails all are rolled back.
// They share one switch, homed on the first component's first node, and
// one configuration file whose rows carry their component's tag.
func (m *Master) CreatePartitionedService(name string, comps []ComponentSpec, onDone func(*PartitionedService), onErr func(error)) {
	specs, err := componentSpecs(name, comps)
	if err != nil && !m.halted { // createServices reports a halted master
		m.reject(name, err, nil, onErr)
		return
	}
	m.createServices(name, specs, func(svcs []*Service) {
		ps := &PartitionedService{
			Name:       name,
			Components: make(map[string]*Service, len(svcs)),
			Config:     svcs[0].Config,
			Switch:     svcs[0].Switch,
		}
		for i, svc := range svcs {
			ps.Components[comps[i].Component] = svc
		}
		if onDone != nil {
			onDone(ps)
		}
	}, onErr)
}

// componentSpecs checks the component list — a named service, at least
// one component, names non-empty and unique — and returns each
// component's service spec, validated.
func componentSpecs(name string, comps []ComponentSpec) ([]ServiceSpec, error) {
	if name == "" {
		return nil, fmt.Errorf("soda: partitioned service without a name")
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("soda: partitioned service %q with no components", name)
	}
	specs := make([]ServiceSpec, len(comps))
	seen := make(map[string]bool, len(comps))
	for i, c := range comps {
		if c.Component == "" {
			return nil, fmt.Errorf("soda: component without a name")
		}
		if seen[c.Component] {
			return nil, fmt.Errorf("soda: duplicate component %q", c.Component)
		}
		seen[c.Component] = true
		specs[i] = ServiceSpec{
			Name:         name + "/" + c.Component,
			ImageName:    c.ImageName,
			Repository:   c.Repository,
			Requirement:  c.Requirement,
			GuestProfile: c.GuestProfile,
			Behavior:     c.Behavior,
			Port:         c.Port,
		}
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
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
