package soda

import "fmt"

// LiveMatchesState reports the first way the Master's live handles
// disagree with its committed state: a service held by only one of them,
// or a node whose name, capacity, IP or daemon differs, or a service
// whose first live node is not its switch home. Run it at quiescent
// points: a service being created joins its nodes only once every
// placement has reported.
func LiveMatchesState(m *Master) error {
	if len(m.services) != len(m.state.Services) {
		return fmt.Errorf("%d live service(s), %d in the state", len(m.services), len(m.state.Services))
	}
	for _, js := range m.state.Services {
		svc, ok := m.services[js.Name]
		if !ok {
			return fmt.Errorf("service %s: in the state, no live handle", js.Name)
		}
		if len(svc.Nodes) != len(js.Nodes) {
			return fmt.Errorf("service %s: %d live node(s), %d in the state", js.Name, len(svc.Nodes), len(js.Nodes))
		}
		for _, n := range svc.Nodes {
			jn := js.node(n.NodeName)
			if jn == nil {
				return fmt.Errorf("node %s: live, not in the state", n.NodeName)
			}
			host := m.daemons[jn.Daemon].Host()
			switch {
			case n.Capacity != jn.Capacity:
				return fmt.Errorf("node %s: live capacity %d, state %d", n.NodeName, n.Capacity, jn.Capacity)
			case string(n.IP) != jn.IP:
				return fmt.Errorf("node %s: live IP %s, state %s", n.NodeName, n.IP, jn.IP)
			case n.HostName != host.Spec.Name || n.Guest != nil && n.Guest.Host() != host:
				return fmt.Errorf("node %s: live on %s, state on daemon %d (%s)", n.NodeName, n.HostName, jn.Daemon, host.Spec.Name)
			}
		}
		if len(svc.Nodes) > 0 && svc.Nodes[0].NodeName != js.Home {
			return fmt.Errorf("service %s: first live node %s, switch home %q", js.Name, svc.Nodes[0].NodeName, js.Home)
		}
	}
	return nil
}
