package simnet

import (
	"fmt"

	"repro/internal/sim"
)

// Mbps converts megabits/second into the byte/second units of the fluid
// engine.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

// flowMeta tags every transfer flow with its source address's shaper
// class key (see Network.classKey).
type flowMeta struct {
	class uint64
}

// ShaperMode selects the outbound traffic shaper's semantics (§4.2: the
// shaper "enforces the outbound bandwidth share allocated to each virtual
// service node").
type ShaperMode int

// Shaper modes.
const (
	// ShareMode is work-conserving weighted fair queueing: each source
	// IP's allocation is a weight, enforced only under contention. A lone
	// sender gets the whole link. This is the default and matches the
	// paper's "share" language.
	ShareMode ShaperMode = iota
	// CapMode is a strict token-bucket-style rate cap per source IP:
	// allocations are hard ceilings even on an idle link. Kept for the
	// shaping-semantics ablation benchmark.
	CapMode
)

// String names the mode.
func (m ShaperMode) String() string {
	if m == CapMode {
		return "cap"
	}
	return "share"
}

// NIC is one host's network attachment: an outbound fluid link (the
// single bottleneck of the transfer model), the set of IP addresses the
// host's bridging module answers for, and the per-IP outbound allocations
// installed by the traffic shaper.
type NIC struct {
	// HostName is the owning host, for traces.
	HostName string

	net      *Network
	out      *sim.FluidServer
	rateMbps float64
	ips      map[IP]bool
	shaper   shaper
}

// RateMbps returns the NIC's attached line rate in Mbps — what download
// estimators use to size deadlines for flows this NIC will serve.
func (nic *NIC) RateMbps() float64 { return nic.rateMbps }

// Network is the LAN fabric connecting HUP hosts, ASP machines, and
// clients.
type Network struct {
	k       *sim.Kernel
	latency sim.Duration
	nics    map[string]*NIC
	owner   map[IP]*bridgeEntry
	opFree  sim.FreeList[transferOp]

	// classKeys interns addresses as the shaper's class keys. Keys are
	// never released, so an address keeps its key across re-bridging;
	// the table is bounded by the distinct addresses ever seen.
	classKeys map[IP]uint64

	// faults holds the injected link impairments, keyed by directed
	// (srcHost, dstHost) pair; "*" matches any host. Empty in normal
	// operation, so the data path pays a single length check.
	faults   map[[2]string]linkFault
	faultRNG *sim.RNG

	// Transferred counts total bytes delivered, for tests.
	Transferred int64

	// Dropped counts transfers silently discarded by an injected loss
	// fault or partition, for tests and chaos reports.
	Dropped int64
}

// linkFault is one directed host-pair impairment: a loss probability and
// an added one-way delay. A loss of 1.0 is a partition.
type linkFault struct {
	loss  float64
	delay sim.Duration
}

// bridgeEntry is the bridging table's value: which NIC answers for an
// address, plus the per-source-IP byte odometer the accounting meters
// read. Keeping the odometer inside the entry lets Transfer charge bytes
// with the map lookup it already performs, so metering adds no work to
// the data path.
type bridgeEntry struct {
	nic   *NIC
	bytes int64  // outbound bytes submitted from this source address
	class uint64 // the address's shaper class key
}

// transferOp is the per-transfer state of Network.Transfer. Ops are
// pooled on the Network, each carries its own link flow, and their two
// stage callbacks (link drained → latency leg; latency elapsed →
// delivery) are bound once per struct lifetime, so steady-state traffic
// allocates nothing.
type transferOp struct {
	n      *Network
	size   int64
	onDone func()
	flow   sim.Flow // Meta points at meta
	meta   flowMeta
	extra  sim.Duration // injected delay from a link fault
	drain  func()       // stage 1: flow drained through the source link
	arrive func()       // stage 2: propagation delay elapsed, deliver
}

// getOp draws a transfer op from the pool.
func (n *Network) getOp() *transferOp {
	if op := n.opFree.Get(); op != nil {
		return op
	}
	op := &transferOp{n: n}
	op.flow = sim.Flow{Label: "transfer", Weight: 1, Meta: &op.meta}
	op.drain = func() { op.n.k.After(op.n.latency+op.extra, op.arrive) }
	op.arrive = func() {
		op.n.Transferred += op.size
		fn := op.onDone
		op.n.putOp(op)
		if fn != nil {
			fn()
		}
	}
	return op
}

// putOp returns an op to the pool. The op is reusable immediately, so
// callbacks must copy what they need before releasing.
func (n *Network) putOp(op *transferOp) {
	op.size, op.onDone, op.meta, op.extra = 0, nil, flowMeta{}, 0
	n.opFree.Put(op)
}

// New returns a LAN with the given one-way propagation latency.
func New(k *sim.Kernel, latency sim.Duration) *Network {
	if latency < 0 {
		panic("simnet: negative latency")
	}
	return &Network{
		k:         k,
		latency:   latency,
		nics:      make(map[string]*NIC),
		owner:     make(map[IP]*bridgeEntry),
		classKeys: make(map[IP]uint64),
	}
}

// classKey returns ip's shaper class key, interning the address on first
// use.
func (n *Network) classKey(ip IP) uint64 {
	k, ok := n.classKeys[ip]
	if !ok {
		k = uint64(len(n.classKeys))
		n.classKeys[ip] = k
	}
	return k
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Latency returns the LAN's one-way propagation delay.
func (n *Network) Latency() sim.Duration { return n.latency }

// Attach adds a host to the LAN with the given NIC rate.
func (n *Network) Attach(hostName string, mbps float64) (*NIC, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("simnet: NIC for %q with non-positive rate", hostName)
	}
	if _, dup := n.nics[hostName]; dup {
		return nil, fmt.Errorf("simnet: host %q already attached", hostName)
	}
	nic := &NIC{
		HostName: hostName,
		net:      n,
		rateMbps: mbps,
		ips:      make(map[IP]bool),
		shaper:   shaper{caps: make(map[uint64]float64)},
	}
	nic.out = sim.NewFluidServer(n.k, hostName+"/out", Mbps(mbps), &nic.shaper)
	n.nics[hostName] = nic
	return nic, nil
}

// MustAttach is Attach, panicking on error.
func (n *Network) MustAttach(hostName string, mbps float64) *NIC {
	nic, err := n.Attach(hostName, mbps)
	if err != nil {
		panic(err)
	}
	return nic
}

// NIC returns the attachment for hostName, or nil.
func (n *Network) NIC(hostName string) *NIC { return n.nics[hostName] }

// Lookup returns the NIC whose bridge answers for ip.
func (n *Network) Lookup(ip IP) (*NIC, bool) {
	e, ok := n.owner[ip]
	if !ok {
		return nil, false
	}
	return e.nic, true
}

// BytesFrom returns the cumulative outbound bytes submitted from ip
// since the address was bridged. The odometer resets to zero when the
// address is released and re-registered, so meters must treat a value
// below their last reading as a counter reset.
func (n *Network) BytesFrom(ip IP) int64 {
	e, ok := n.owner[ip]
	if !ok {
		return 0
	}
	return e.bytes
}

// AddIP registers ip with this NIC's bridging module, so packets to/from
// the address are forwarded through this host — the "UML-IP mapping"
// notification of §4.3.
func (nic *NIC) AddIP(ip IP) error {
	if owner, taken := nic.net.owner[ip]; taken {
		return fmt.Errorf("simnet: %s already bridged by %s", ip, owner.nic.HostName)
	}
	nic.ips[ip] = true
	nic.net.owner[ip] = &bridgeEntry{nic: nic, class: nic.net.classKey(ip)}
	return nil
}

// RemoveIP deregisters ip from the bridge.
func (nic *NIC) RemoveIP(ip IP) {
	if !nic.ips[ip] {
		return
	}
	delete(nic.ips, ip)
	delete(nic.net.owner, ip)
	delete(nic.shaper.caps, nic.net.classKey(ip))
}

// SetShaperMode switches the shaper semantics, re-dividing rates
// immediately.
func (nic *NIC) SetShaperMode(m ShaperMode) {
	nic.shaper.mode = m
	nic.out.Redivide()
}

// SetShaperCap installs an outbound bandwidth allocation (in Mbps) for
// traffic sourced from ip — the host-OS traffic shaper of §4.2. An
// allocation of 0 removes shaping for the address.
func (nic *NIC) SetShaperCap(ip IP, mbps float64) {
	if mbps < 0 {
		panic("simnet: negative shaper allocation")
	}
	key := nic.net.classKey(ip)
	if mbps == 0 {
		delete(nic.shaper.caps, key)
	} else {
		nic.shaper.caps[key] = Mbps(mbps)
	}
	// Re-divide rates under the new allocations immediately.
	nic.out.Redivide()
}

// defaultShareBps is the weight of traffic from addresses with no
// explicit allocation (the host's own control traffic).
const defaultShareBps = 10 * 1e6 / 8

// shaper is the outbound link's share policy: one class per source
// address, flows sharing their class's rate equally. It divides the link
// among the active source addresses only, so a re-division costs one
// allocation lookup per sending address however many flows are queued.
type shaper struct {
	caps map[uint64]float64 // bytes/sec allocation per source class key
	mode ShaperMode
}

// Classify implements sim.SharePolicy.
func (*shaper) Classify(f *sim.Flow) (uint64, float64) {
	return f.Meta.(*flowMeta).class, 1
}

// Divide implements sim.SharePolicy.
func (sh *shaper) Divide(capacity float64, classes []*sim.ShareClass) {
	if sh.mode == ShareMode {
		sh.divideShares(capacity, classes)
	} else {
		sh.divideCaps(capacity, classes)
	}
}

// divideShares is work-conserving WFQ: active addresses split the link
// in proportion to their allocations.
func (sh *shaper) divideShares(capacity float64, classes []*sim.ShareClass) {
	weight := func(key uint64) float64 {
		if w, ok := sh.caps[key]; ok {
			return w
		}
		return defaultShareBps
	}
	var totalW float64
	for _, c := range classes {
		totalW += weight(c.Key)
	}
	for _, c := range classes {
		c.Rate = capacity * weight(c.Key) / totalW
	}
}

// divideCaps enforces hard ceilings: capped addresses get at most their
// allocation (scaled down if the ceilings exceed the link); uncapped
// addresses share the residual equally per flow.
func (sh *shaper) divideCaps(capacity float64, classes []*sim.ShareClass) {
	var cappedTotal float64
	var uncappedFlows int
	for _, c := range classes {
		if cap, ok := sh.caps[c.Key]; ok {
			cappedTotal += cap
		} else {
			uncappedFlows += c.Flows()
		}
	}
	scale := 1.0
	if cappedTotal > capacity {
		scale = capacity / cappedTotal
	}
	residual := capacity
	for _, c := range classes {
		if cap, ok := sh.caps[c.Key]; ok {
			c.Rate = cap * scale
			residual -= c.Rate
		}
	}
	if uncappedFlows == 0 {
		return
	}
	perFlow := max(residual, 0) / float64(uncappedFlows)
	for _, c := range classes {
		if _, ok := sh.caps[c.Key]; !ok {
			c.Rate = perFlow * float64(c.Flows())
		}
	}
}

// SetFaultRNG installs the random source that loss faults draw from.
// Chaos harnesses seed it explicitly so drop decisions replay exactly.
func (n *Network) SetFaultRNG(rng *sim.RNG) { n.faultRNG = rng }

// SetLinkFault installs (or replaces) an impairment on the directed
// srcHost → dstHost link: each transfer is dropped with probability loss,
// and survivors incur delay on top of the LAN latency. Either endpoint
// may be the wildcard "*". A zero loss and zero delay clears the entry.
func (n *Network) SetLinkFault(srcHost, dstHost string, loss float64, delay sim.Duration) {
	if loss < 0 || loss > 1 {
		panic(fmt.Sprintf("simnet: loss probability %v out of [0,1]", loss))
	}
	if delay < 0 {
		panic("simnet: negative fault delay")
	}
	key := [2]string{srcHost, dstHost}
	if loss == 0 && delay == 0 {
		delete(n.faults, key)
		return
	}
	if n.faults == nil {
		n.faults = make(map[[2]string]linkFault)
	}
	if n.faultRNG == nil {
		n.faultRNG = sim.NewRNG(0xFA017)
	}
	n.faults[key] = linkFault{loss: loss, delay: delay}
}

// ClearLinkFault removes the impairment on srcHost → dstHost, if any.
func (n *Network) ClearLinkFault(srcHost, dstHost string) {
	delete(n.faults, [2]string{srcHost, dstHost})
}

// Partition drops all traffic between hosts a and b, both directions.
func (n *Network) Partition(a, b string) {
	n.SetLinkFault(a, b, 1, 0)
	n.SetLinkFault(b, a, 1, 0)
}

// HealPartition restores the a↔b links.
func (n *Network) HealPartition(a, b string) {
	n.ClearLinkFault(a, b)
	n.ClearLinkFault(b, a)
}

// ClearFaults removes every injected link impairment.
func (n *Network) ClearFaults() { n.faults = nil }

// lookupFault resolves the impairment (if any) on the src → dst host
// pair, honouring "*" wildcards. Exact matches win over wildcards.
func (n *Network) lookupFault(srcHost, dstHost string) (linkFault, bool) {
	if f, ok := n.faults[[2]string{srcHost, dstHost}]; ok {
		return f, true
	}
	if f, ok := n.faults[[2]string{srcHost, "*"}]; ok {
		return f, true
	}
	if f, ok := n.faults[[2]string{"*", dstHost}]; ok {
		return f, true
	}
	if f, ok := n.faults[[2]string{"*", "*"}]; ok {
		return f, true
	}
	return linkFault{}, false
}

// Transfer moves size bytes from src to dst: the flow drains through the
// source NIC's shaped outbound link, then arrives after the LAN latency.
// onDone fires at delivery. Zero-byte transfers model control messages
// and cost only latency. A transfer dropped by an injected link fault
// returns nil and its onDone never fires — exactly how a lost datagram
// looks to the endpoints.
func (n *Network) Transfer(src, dst IP, size int64, onDone func()) error {
	srcEntry, ok := n.owner[src]
	if !ok {
		return fmt.Errorf("simnet: source %s not bridged by any host", src)
	}
	dstEntry, ok := n.owner[dst]
	if !ok {
		return fmt.Errorf("simnet: destination %s not bridged by any host", dst)
	}
	if size < 0 {
		return fmt.Errorf("simnet: negative transfer size %d", size)
	}
	var extra sim.Duration
	if len(n.faults) > 0 {
		if f, ok := n.lookupFault(srcEntry.nic.HostName, dstEntry.nic.HostName); ok {
			if f.loss >= 1 || (f.loss > 0 && n.faultRNG.Float64() < f.loss) {
				n.Dropped++
				return nil
			}
			extra = f.delay
		}
	}
	srcEntry.bytes += size
	op := n.getOp()
	op.size, op.onDone, op.extra = size, onDone, extra
	op.meta = flowMeta{class: srcEntry.class}
	if size == 0 {
		op.drain()
		return nil
	}
	srcEntry.nic.out.Start(&op.flow, float64(size), op.drain)
	return nil
}

// RPC models a control-plane request/response pair: a small request to
// dst, then a small response back. fn runs at the destination between the
// two; onReply fires at the source when the response arrives.
func (n *Network) RPC(src, dst IP, reqBytes, respBytes int64, fn func(), onReply func()) error {
	return n.Transfer(src, dst, reqBytes, func() {
		if fn != nil {
			fn()
		}
		if err := n.Transfer(dst, src, respBytes, onReply); err != nil {
			panic(err) // endpoints vanished mid-RPC: a wiring bug
		}
	})
}
