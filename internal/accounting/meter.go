package accounting

import (
	"repro/internal/cycles"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// NodeRef identifies one virtual service node for metering: its name,
// the userid the host scheduler accounts cycles under, the host it runs
// on, and its bridged address for byte accounting.
type NodeRef struct {
	Name string
	UID  int
	Host *hostos.Host
	IP   simnet.IP
}

// ReservedResources is the reservation-based part of a service's bill:
// what the platform holds for it whether used or not.
type ReservedResources struct {
	CPUMHz   float64
	MemoryMB float64
	DiskMB   float64
}

// meterNode is the per-node delta state.
type meterNode struct {
	ref     NodeRef
	lastCPU float64 // cumulative cycles at last sample
	lastNet int64   // cumulative bytes at last sample
}

// Meter samples one service's resource delivery on each accounting
// tick and folds the deltas into a step-down usage series. CPU comes
// from the host scheduler's per-uid cycle accounting (finished and
// in-flight flows both count), network from the bridge's per-source
// byte odometers, memory and disk from the reservation.
type Meter struct {
	service  string
	net      *simnet.Network
	reserved func() ReservedResources
	nodes    []meterNode

	series *Series
	totals Usage
	lastT  sim.Time

	// recentMHz is the delivered CPU rate over the last sample interval;
	// hostBusy the busiest involved host's utilisation over the same
	// interval. The SLO evaluator's CPU-starvation check reads both: low
	// delivery only violates when the host was actually contended.
	recentMHz float64
	hostBusy  float64
	hostLast  map[*hostos.Host]float64

	cpuG, netG, memG, mhzG *telemetry.Gauge
}

// NewMeter creates a meter for a service. reg may be nil (gauges become
// no-ops). Node cycle/byte odometers start at zero, so the first sample
// charges everything consumed since the node's creation — priming CPU is
// billed to the service that asked for it.
func NewMeter(service string, net *simnet.Network, reserved func() ReservedResources, nodes []NodeRef, reg *telemetry.Registry, at sim.Time) *Meter {
	m := &Meter{
		service:  service,
		net:      net,
		reserved: reserved,
		series:   NewSeries(),
		lastT:    at,
		hostLast: make(map[*hostos.Host]float64),
	}
	m.setNodes(nodes)
	svc := telemetry.L("service", service)
	m.cpuG = reg.Gauge("soda_usage_cpu_mhz_seconds", svc)
	m.netG = reg.Gauge("soda_usage_net_bytes", svc)
	m.memG = reg.Gauge("soda_usage_mem_mb", svc)
	m.mhzG = reg.Gauge("soda_usage_cpu_mhz", svc)
	return m
}

// Service returns the metered service's name.
func (m *Meter) Service() string { return m.service }

// setNodes installs the node set, preserving odometer state for nodes
// that survive (resize keeps their history; fresh nodes start at zero).
func (m *Meter) setNodes(refs []NodeRef) {
	old := make(map[string]meterNode, len(m.nodes))
	for _, n := range m.nodes {
		old[n.ref.Name] = n
	}
	nodes := make([]meterNode, 0, len(refs))
	for _, ref := range refs {
		if prev, ok := old[ref.Name]; ok {
			prev.ref = ref
			nodes = append(nodes, prev)
			continue
		}
		nodes = append(nodes, meterNode{ref: ref})
	}
	m.nodes = nodes
	// Track host utilisation baselines for every involved host.
	for _, n := range m.nodes {
		if n.ref.Host != nil {
			if _, ok := m.hostLast[n.ref.Host]; !ok {
				m.hostLast[n.ref.Host] = n.ref.Host.TotalCPUCycles()
			}
		}
	}
}

// Sample reads every odometer at time now and folds the deltas into the
// series and totals. Deltas below the last reading (address reuse after
// teardown/re-create) are treated as counter resets.
func (m *Meter) Sample(now sim.Time) {
	dt := now.Sub(m.lastT)
	if dt <= 0 {
		return
	}
	var p Usage
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.ref.Host != nil {
			cyc := n.ref.Host.CPUCyclesFor(n.ref.UID)
			if cyc < n.lastCPU {
				n.lastCPU = 0
			}
			p.CPUMHzSeconds += (cyc - n.lastCPU) / float64(cycles.MHz)
			n.lastCPU = cyc
		}
		if m.net != nil && n.ref.IP != "" {
			b := m.net.BytesFrom(n.ref.IP)
			if b < n.lastNet {
				n.lastNet = 0
			}
			p.NetBytes += b - n.lastNet
			n.lastNet = b
		}
	}
	var res ReservedResources
	if m.reserved != nil {
		res = m.reserved()
	}
	secs := dt.Seconds()
	p.MemMBSeconds = res.MemoryMB * secs
	p.DiskMBSeconds = res.DiskMB * secs

	m.totals.Add(p)
	m.series.Add(now, p)
	m.recentMHz = p.CPUMHzSeconds / secs

	// Host utilisation over the interval, for the starvation guard.
	m.hostBusy = 0
	for h, last := range m.hostLast {
		total := h.TotalCPUCycles()
		capacity := float64(h.Spec.Clock) * secs
		if capacity > 0 {
			if busy := (total - last) / capacity; busy > m.hostBusy {
				m.hostBusy = busy
			}
		}
		m.hostLast[h] = total
	}
	m.lastT = now

	m.cpuG.Set(m.totals.CPUMHzSeconds)
	m.netG.Set(float64(m.totals.NetBytes))
	m.memG.Set(res.MemoryMB)
	m.mhzG.Set(m.recentMHz)
}

// Totals returns cumulative usage since the meter started.
func (m *Meter) Totals() Usage { return m.totals }

// Series returns the meter's step-down usage series.
func (m *Meter) Series() *Series { return m.series }

// RecentMHz returns the CPU delivery rate over the last sample interval.
func (m *Meter) RecentMHz() float64 { return m.recentMHz }

// HostBusy returns the busiest involved host's utilisation over the
// last sample interval (0..1).
func (m *Meter) HostBusy() float64 { return m.hostBusy }

// zeroGauges clears the exported gauges on unwatch so torn-down
// services stop showing live usage.
func (m *Meter) zeroGauges() {
	m.cpuG.Set(0)
	m.netG.Set(0)
	m.memG.Set(0)
	m.mhzG.Set(0)
}
