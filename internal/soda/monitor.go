package soda

import (
	"fmt"
	"strings"

	"repro/internal/simnet"
)

// The paper's §1 promise: "staff of the bioinformatics institute should
// be able to perform service monitoring and management, as if the
// service were hosted locally". ServiceStatus is that monitoring view,
// served to the authenticated ASP by the Agent.

// NodeStatus is one virtual service node's live state.
type NodeStatus struct {
	// NodeName, HostName, IP identify the node.
	NodeName, HostName string
	IP                 simnet.IP
	// Capacity is the node's machine-instance count.
	Capacity int
	// GuestState is the guest OS lifecycle state ("running", "crashed").
	GuestState string
	// Workers is the number of live application worker processes.
	Workers int
	// CPUCycles is the node's cumulative CPU consumption.
	CPUCycles float64
	// Forwarded and Active are the switch's counters for this node.
	Forwarded, Active int
	// ProcessTable is the guest's ps listing (Figure 3's view).
	ProcessTable []string
}

// ServiceStatus is the ASP-facing monitoring snapshot of one service.
type ServiceStatus struct {
	Name          string
	State         ServiceState
	Capacity      int
	ConfigVersion int
	// Routed and Dropped are the switch's service-wide counters.
	Routed, Dropped int
	Nodes           []NodeStatus
}

// Healthy reports whether every node's guest is running with at least
// one worker.
func (s *ServiceStatus) Healthy() bool {
	for _, n := range s.Nodes {
		if n.GuestState != "running" || n.Workers == 0 {
			return false
		}
	}
	return len(s.Nodes) > 0
}

// Render prints the status as an operator console would.
func (s *ServiceStatus) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service %s: %v, capacity %d, config v%d, routed %d, dropped %d\n",
		s.Name, s.State, s.Capacity, s.ConfigVersion, s.Routed, s.Dropped)
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "  %-16s %-8s %-14s cap=%d guest=%-8s workers=%d cpu=%.2gGc fwd=%d act=%d\n",
			n.NodeName, n.HostName, n.IP, n.Capacity, n.GuestState, n.Workers,
			n.CPUCycles/1e9, n.Forwarded, n.Active)
	}
	return b.String()
}

// Status builds the monitoring snapshot for a hosted service.
func (m *Master) Status(name string) (*ServiceStatus, error) {
	svc, ok := m.services[name]
	if !ok {
		return nil, fmt.Errorf("soda: no service %q", name)
	}
	st := &ServiceStatus{
		Name:          svc.Spec.Name,
		State:         svc.State(),
		Capacity:      svc.TotalCapacity(),
		ConfigVersion: svc.Config.Version(),
	}
	if svc.Switch != nil {
		st.Routed, st.Dropped = svc.Switch.Routed(), svc.Switch.Dropped()
	}
	for _, n := range svc.Nodes {
		ns := NodeStatus{
			NodeName: n.NodeName,
			HostName: n.HostName,
			IP:       n.IP,
			Capacity: n.Capacity,
		}
		if n.Guest != nil {
			ns.GuestState = n.Guest.State().String()
			ns.Workers = n.Guest.Workers()
			ns.CPUCycles = n.Guest.Host().CPUCyclesFor(n.Guest.UID)
			ns.ProcessTable = n.Guest.PS()
		}
		if svc.Switch != nil {
			sw := svc.Switch.StatsFor(svc.entry(n))
			ns.Forwarded, ns.Active = sw.Forwarded, sw.Active
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st, nil
}

// ServiceStatus serves the monitoring view through the Agent: the ASP
// authenticates and may only inspect its own services (administration
// isolation, §2.1 — each provider has privileges only within its own
// service).
func (a *Agent) ServiceStatus(credential, serviceName string) (*ServiceStatus, error) {
	asp, err := a.authenticate(credential)
	if err != nil {
		return nil, err
	}
	if !a.ownsService(asp, serviceName) {
		return nil, fmt.Errorf("soda: ASP %s does not own service %q", asp, serviceName)
	}
	return a.master.Status(serviceName)
}
