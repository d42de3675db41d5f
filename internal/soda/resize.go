package soda

import (
	"fmt"
	"sort"

	"repro/internal/svcswitch"
)

// ResizeService changes a service's capacity to a new requirement
// <n_new, M> — SODA_service_resizing (§4.1). Per §3.4, the Master "will
// either adjust the resources in the current virtual service nodes, or
// add/remove virtual service node(s)": growth first tries in-place
// reservation growth on the nodes' own hosts, then primes new nodes on
// hosts the service does not yet occupy; shrinkage reduces node
// capacities and tears down emptied nodes (never the switch's home
// node). The service configuration file is updated to reflect every
// change, so the switch re-weights immediately.
func (m *Master) ResizeService(name string, newN int, onDone func(*Service), onErr func(error)) {
	fail := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	if m.halted {
		fail(fmt.Errorf("soda: master is down"))
		return
	}
	svc, ok := m.services[name]
	if !ok {
		fail(fmt.Errorf("soda: no service %q", name))
		return
	}
	if st := svc.State(); st != Active {
		fail(fmt.Errorf("soda: service %q is %v, not active", name, st))
		return
	}
	if newN <= 0 {
		fail(fmt.Errorf("soda: resize of %q to n=%d (use teardown to remove)", name, newN))
		return
	}
	current := svc.TotalCapacity()
	emitted := func(s *Service) {
		// Re-watch so the meter tracks the new node set and reservation.
		m.watchService(s)
		m.emit(EventResized, 0, s.Spec.Name, "",
			fmt.Sprintf("capacity %d -> %d over %d node(s)", current, s.TotalCapacity(), len(s.Nodes)))
		if onDone != nil {
			onDone(s)
		}
	}
	switch {
	case newN == current:
		if onDone != nil {
			onDone(svc)
		}
	case newN < current:
		if err := m.shrink(svc, current-newN); err != nil {
			fail(err)
			return
		}
		emitted(svc)
	default:
		m.grow(svc, newN-current, emitted, onErr)
	}
}

// shrink removes delta machine instances: trim capacities from the last
// node backwards, tearing down nodes that reach zero — except the
// switch's home node (index 0), which is trimmed to one instance at most.
func (m *Master) shrink(svc *Service, delta int) error {
	for i := len(svc.Nodes) - 1; i >= 0 && delta > 0; i-- {
		n := &svc.Nodes[i]
		floor := 0
		if i == 0 {
			floor = 1 // the switch lives here
		}
		trim := n.Capacity - floor
		if trim > delta {
			trim = delta
		}
		if trim <= 0 {
			continue
		}
		newCap := n.Capacity - trim
		nodeName := n.NodeName
		di, _ := svc.daemonOf(nodeName)
		d := m.daemons[di]
		entry := svc.entry(*n)
		if newCap == 0 {
			svc.Switch.Unbind(entry)
			if err := d.Teardown(m.state.Epoch, nodeName); err != nil {
				return err
			}
			svc.Nodes = append(svc.Nodes[:i], svc.Nodes[i+1:]...)
			svc.Config.RemoveEntry(entry.IP, entry.Port)
			m.commit("node-removed", jNodeRef{Service: svc.Spec.Name, Name: nodeName})
		} else {
			info, err := d.ResizeNode(m.state.Epoch, n.NodeName, svc.Spec.Requirement.M, newCap, m.Factor)
			if err != nil {
				return err
			}
			n.Capacity = info.Capacity
			m.commit("node-resized", jNodeRef{Service: svc.Spec.Name, Name: n.NodeName, Capacity: info.Capacity})
			m.refreshConfig(svc)
		}
		delta -= trim
	}
	if delta > 0 {
		return fmt.Errorf("soda: could not shrink %q by %d more instances", svc.Spec.Name, delta)
	}
	return nil
}

// grow adds delta machine instances: in-place first, then new nodes on
// hosts without one. Growth is untraced.
func (m *Master) grow(svc *Service, delta int, onDone func(*Service), onErr func(error)) {
	delta = m.growInPlace(svc, delta)
	m.refreshConfig(svc)
	if delta == 0 {
		if onDone != nil {
			onDone(svc)
		}
		return
	}
	placements, err := m.placeFresh(svc, delta)
	if err != nil {
		if onErr != nil {
			onErr(fmt.Errorf("soda: resize of %q: %w", svc.Spec.Name, err))
		}
		return
	}
	m.primeNodes(svc, placements, nil, "", svc.bind, func(_ int, err error) {
		m.refreshConfig(svc)
		if err != nil {
			if onErr != nil {
				onErr(err)
			}
			return
		}
		if onDone != nil {
			onDone(svc)
		}
	})
}

// growInPlace adds up to delta instances to the service's existing
// nodes, one at a time round-robin so load stays balanced, and returns
// how many it could not place. The caller refreshes the configuration.
func (m *Master) growInPlace(svc *Service, delta int) int {
	progress := true
	for delta > 0 && progress {
		progress = false
		for i := range svc.Nodes {
			if delta == 0 {
				break
			}
			n := &svc.Nodes[i]
			di, _ := svc.daemonOf(n.NodeName)
			info, err := m.daemons[di].ResizeNode(m.state.Epoch, n.NodeName, svc.Spec.Requirement.M, n.Capacity+1, m.Factor)
			if err != nil {
				continue
			}
			n.Capacity = info.Capacity
			m.commit("node-resized", jNodeRef{Service: svc.Spec.Name, Name: n.NodeName, Capacity: info.Capacity})
			delta--
			progress = true
		}
	}
	return delta
}

// placeFresh allocates n more instances of the service's machine
// configuration on hosts the service neither occupies nor is priming on.
func (m *Master) placeFresh(svc *Service, n int) ([]Placement, error) {
	occupied := make(map[int]bool)
	for _, node := range svc.record().Nodes {
		occupied[node.Daemon] = true
	}
	for _, di := range svc.priming {
		occupied[di] = true
	}
	var avail []HostAvail
	for _, ha := range m.CollectAvailability() {
		if !occupied[ha.Index] {
			avail = append(avail, ha)
		}
	}
	return AllocateWith(m.Strategy, avail, Requirement{N: n, M: svc.Spec.Requirement.M}, m.Factor)
}

// refreshConfig rewrites the service's rows of its configuration file
// from the node list (stable order: switch home first, then by name). A
// component's rows are replaced where they stand; the rows of the other
// components sharing the file are kept.
func (m *Master) refreshConfig(svc *Service) {
	nodes := append([]NodeInfo(nil), svc.Nodes...)
	if len(nodes) > 1 {
		head := nodes[0]
		rest := nodes[1:]
		sort.Slice(rest, func(i, j int) bool { return rest[i].NodeName < rest[j].NodeName })
		nodes = append([]NodeInfo{head}, rest...)
	}
	var rows []svcswitch.BackendEntry
	pending := nodes
	mine := func() {
		for _, n := range pending {
			rows = append(rows, svc.entry(n))
		}
		pending = nil
	}
	for _, e := range svc.Config.Entries() {
		if e.Component == svc.component {
			mine()
		} else {
			rows = append(rows, e)
		}
	}
	mine()
	if err := svc.Config.SetEntries(rows); err != nil {
		panic(fmt.Sprintf("soda: invalid refreshed config for %q: %v", svc.Spec.Name, err))
	}
	svc.Nodes = nodes
}
