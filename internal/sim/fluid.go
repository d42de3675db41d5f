package sim

import (
	"fmt"
	"sort"
)

// Flow is a unit of work draining through a FluidServer: a CPU burst
// (work = cycles), a network transfer (work = bytes), or a disk write
// (work = bytes). The server's share policy places the flow in a class;
// the class's rate is divided among its flows by in-class weight, and the
// flow completes when its remaining work reaches zero.
type Flow struct {
	// Label identifies the flow in traces and debugging output.
	Label string
	// Weight is consumed by weight-aware share policies; 1 by default.
	Weight float64
	// Meta lets resource models attach their own bookkeeping (e.g. the
	// owning process) without the fluid engine knowing about it.
	Meta any

	// While the flow is in service, mark is its finish tag — the class
	// virtual time V at which it drains — and base is the work it had
	// been served at its last attach less w times V at that attach, so
	// that it has been served base + w·V. Once inactive, mark holds the
	// work remaining and base the work served. Sharing the two fields
	// keeps a Flow at 96 bytes; resource models embed one per operation.
	mark, base float64
	w          float64     // in-class weight the policy assigned
	seq        uint64      // submit order, breaking finish-tag ties
	class      *ShareClass // nil when inactive
	onDone     func()
	hidx       int32 // position in class.heap, -1 when inactive
}

// Remaining returns the work left in the flow at the server's current
// virtual time. It costs O(1) and does not disturb the server.
func (f *Flow) Remaining() float64 {
	if f.class == nil {
		return f.mark
	}
	return max(0, (f.mark-f.class.server.virtualNow(f.class))*f.w)
}

// Served returns the total work completed by the flow so far. It is
// measured from the flow's attach, not derived from Remaining, so a
// near-infinite flow (a spinning process) still reports its service to
// the cycle.
func (f *Flow) Served() float64 {
	if f.class == nil {
		return f.base
	}
	return f.base + min(f.class.server.virtualNow(f.class), f.mark)*f.w
}

// Rate returns the service rate (work units per second) the flow received
// at the last re-division, zero if the flow is inactive.
func (f *Flow) Rate() float64 {
	if f.class == nil {
		return 0
	}
	return f.class.slope * f.w
}

// Active reports whether the flow is currently attached to a server.
func (f *Flow) Active() bool { return f.class != nil }

// AddWork increases the flow's remaining work while it is in service.
// Used by long-lived flows (e.g. a spinning process) that never drain.
func (f *Flow) AddWork(units float64) {
	if f.class == nil {
		f.mark += units
		return
	}
	s := f.class.server
	s.settle()
	f.mark += units / f.w
	f.class.fix(int(f.hidx))
	s.reschedule()
}

// ShareClass is one class of a FluidServer's active flows. The policy
// sets Rate; the engine divides it among the class's flows in proportion
// to their in-class weights, tracking the class's virtual time — the
// cumulative service one unit of weight has received — so that no flow
// needs touching when the rate changes (generalised processor sharing).
type ShareClass struct {
	// Key is the class key the policy returned from Classify.
	Key uint64
	// Weight is the sum of the in-class weights of the class's flows.
	Weight float64
	// Rate is the class's service rate, set by the policy's Divide.
	Rate float64

	server *FluidServer
	v      float64 // virtual time: service per unit weight since activation
	slope  float64 // dv/dt under the current division: Rate/Weight
	heap   []*Flow // min-heap on (finish tag, seq)
	pos    int     // index in the server's active list, -1 when inactive
}

// Flows returns the number of active flows in the class.
func (c *ShareClass) Flows() int { return len(c.heap) }

// SharePolicy divides a FluidServer's capacity. It is consulted in two
// parts: Classify places each flow, once when it is submitted, in a class
// and gives it an in-class weight; Divide assigns a Rate to every active
// class whenever the set of flows changes. Divide sees classes, never
// flows, so re-division costs O(#classes) however many flows are queued.
// Policies are trusted: the engine does not check that the rates sum to
// no more than capacity.
type SharePolicy interface {
	// Classify returns the flow's class key and its positive in-class
	// weight.
	Classify(f *Flow) (key uint64, weight float64)
	// Divide sets Rate on each of the active classes; classes is never
	// empty and its order is deterministic.
	Divide(capacity float64, classes []*ShareClass)
}

// EqualShare divides capacity equally among active flows — the policy of a
// fair queueing link or an unmodified per-process fair CPU scheduler. All
// flows form one class of weight-1 members.
type EqualShare struct{}

// Classify implements SharePolicy.
func (EqualShare) Classify(*Flow) (uint64, float64) { return 0, 1 }

// Divide implements SharePolicy.
func (EqualShare) Divide(capacity float64, classes []*ShareClass) { classes[0].Rate = capacity }

// WeightedShare divides capacity in proportion to flow weights
// (generalised processor sharing): one class, weighted by Flow.Weight,
// with non-positive weights counting as 1.
type WeightedShare struct{}

// Classify implements SharePolicy.
func (WeightedShare) Classify(f *Flow) (uint64, float64) {
	if f.Weight <= 0 {
		return 0, 1
	}
	return 0, f.Weight
}

// Divide implements SharePolicy.
func (WeightedShare) Divide(capacity float64, classes []*ShareClass) { classes[0].Rate = capacity }

// FluidServer is a capacity-C resource shared by a dynamic set of flows
// under a class-structured share policy, simulated exactly in the fluid
// limit: rates are piecewise constant between flow arrivals and
// departures. Each class keeps its own virtual time and a heap of its
// flows ordered by finish tag, so an arrival or departure costs
// O(log n + #classes) rather than a pass over every flow.
type FluidServer struct {
	// Name identifies the resource in panics and traces.
	Name string

	k        *Kernel
	capacity float64
	policy   SharePolicy
	active   []*ShareClass        // active classes, in activation order
	spare    FreeList[ShareClass] // recycled empty classes
	flows    int
	seq      uint64
	settled  Time
	next     Timer
	onNext   func() // pre-bound next-completion callback (no per-reschedule alloc)

	// TotalServed accumulates all work ever completed, for utilisation
	// accounting.
	TotalServed float64
}

// NewFluidServer returns a server with the given capacity (work units per
// second of virtual time) and share policy; nil means EqualShare.
func NewFluidServer(k *Kernel, name string, capacity float64, policy SharePolicy) *FluidServer {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: fluid server %q with non-positive capacity", name))
	}
	if policy == nil {
		policy = EqualShare{}
	}
	s := &FluidServer{Name: name, k: k, capacity: capacity, policy: policy, settled: k.Now()}
	s.onNext = func() {
		s.next = Timer{}
		s.settle()
		s.reschedule()
	}
	return s
}

// Capacity returns the server's total service rate.
func (s *FluidServer) Capacity() float64 { return s.capacity }

// SetCapacity changes the server's service rate, re-dividing it among
// active classes immediately (used for resizing experiments).
func (s *FluidServer) SetCapacity(c float64) {
	if c <= 0 {
		panic(fmt.Sprintf("sim: fluid server %q resized to non-positive capacity", s.Name))
	}
	s.settle()
	s.capacity = c
	s.reschedule()
}

// SetPolicy swaps the share policy at the current instant — the mechanism
// behind the Figure 5 scheduler comparison. Every flow is classified
// afresh, so this is the one O(n log n) operation.
func (s *FluidServer) SetPolicy(p SharePolicy) {
	if p == nil {
		panic("sim: nil share policy")
	}
	s.settle()
	s.policy = p
	flows := s.Flows()
	rem := make([]float64, len(flows))
	for i, f := range flows {
		rem[i] = s.detach(f)
	}
	for i, f := range flows {
		s.attach(f, rem[i])
	}
	s.reschedule()
}

// Redivide re-runs the policy's Divide at the current instant. Policies
// whose class weights or ceilings live outside the engine (a traffic
// shaper's allocations) call it after changing them; flows keep their
// finish tags, so it costs O(#classes).
func (s *FluidServer) Redivide() {
	s.settle()
	s.reschedule()
}

// ActiveFlows returns the number of flows currently in service.
func (s *FluidServer) ActiveFlows() int { return s.flows }

// Flows returns a snapshot of the active flow set in submit order.
func (s *FluidServer) Flows() []*Flow {
	out := make([]*Flow, 0, s.flows)
	for _, c := range s.active {
		out = append(out, c.heap...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Submit starts a new flow with the given amount of work. onDone fires (in
// a fresh kernel event) when the work drains. Submit with non-positive work
// completes immediately.
func (s *FluidServer) Submit(label string, weight, work float64, meta any, onDone func()) *Flow {
	f := &Flow{Label: label, Weight: weight, Meta: meta}
	s.Start(f, work, onDone)
	return f
}

// Start is Submit for a flow the caller owns, typically embedded in a
// pooled operation, so that steady-state traffic does not allocate. The
// caller sets f's Label, Weight and Meta; Start resets its service state.
// f must be inactive, and may be started again once it has completed or
// been cancelled.
func (s *FluidServer) Start(f *Flow, work float64, onDone func()) {
	if f.class != nil {
		panic(fmt.Sprintf("sim: fluid server %q: flow %q started while active", s.Name, f.Label))
	}
	f.mark, f.base, f.w, f.onDone, f.hidx = work, 0, 0, onDone, -1
	f.seq = s.seq
	s.seq++
	if work <= 0 {
		if onDone != nil {
			s.k.Immediately(onDone)
		}
		return
	}
	s.settle()
	s.attach(f, work)
	s.reschedule()
}

// Cancel removes a flow without completing it. It reports whether the flow
// was active. The flow's onDone callback does not fire.
func (s *FluidServer) Cancel(f *Flow) bool {
	if f.class == nil || f.class.server != s {
		return false
	}
	s.settle()
	s.detach(f)
	s.reschedule()
	return true
}

// SetWeight changes a flow's weight and re-divides rates. The flow is
// classified afresh, since its weight may move it to another class.
func (s *FluidServer) SetWeight(f *Flow, w float64) {
	s.settle()
	f.Weight = w
	if f.class != nil && f.class.server == s {
		s.attach(f, s.detach(f))
	}
	s.reschedule()
}

// attach classifies f and enters it into its class with rem work left.
// Callers must settle() first.
func (s *FluidServer) attach(f *Flow, rem float64) {
	key, w := s.policy.Classify(f)
	if !(w > 0) {
		panic(fmt.Sprintf("sim: fluid server %q: policy gave flow %q weight %v", s.Name, f.Label, w))
	}
	c := s.class(key)
	f.class, f.w = c, w
	f.base -= w * c.v
	f.mark = c.v + rem/w
	c.Weight += w
	c.push(f)
	s.flows++
}

// detach removes f from its class and returns its remaining work. A
// flow overtaken by its class's virtual time (the ≥1 ns completion clamp
// overshoots by a fraction of a nanosecond of service) has nothing left,
// and the overshoot is taken back out of TotalServed. Callers must
// settle() first.
func (s *FluidServer) detach(f *Flow) float64 {
	c := f.class
	rem := (f.mark - c.v) * f.w
	if rem < 0 {
		s.TotalServed += rem
		rem = 0
	}
	served := f.base + min(c.v, f.mark)*f.w
	c.remove(int(f.hidx))
	c.Weight -= f.w
	s.flows--
	if len(c.heap) == 0 {
		s.deactivate(c)
	}
	f.class, f.hidx = nil, -1
	f.mark, f.base = rem, served
	return rem
}

// class returns the active class for key, activating one with its
// virtual time at zero if there is none. The scan is O(#classes), the
// same as the Divide every arrival runs, and spares every server a map:
// a testbed has one server per NIC, and one NIC per client machine.
func (s *FluidServer) class(key uint64) *ShareClass {
	for _, c := range s.active {
		if c.Key == key {
			return c
		}
	}
	c := s.spare.Get()
	if c == nil {
		c = &ShareClass{server: s}
	}
	c.Key, c.Weight, c.Rate, c.v, c.slope = key, 0, 0, 0, 0
	c.pos = len(s.active)
	s.active = append(s.active, c)
	return c
}

// deactivate retires an emptied class to the spare list.
func (s *FluidServer) deactivate(c *ShareClass) {
	last := len(s.active) - 1
	s.active[c.pos] = s.active[last]
	s.active[c.pos].pos = c.pos
	s.active[last] = nil
	s.active = s.active[:last]
	c.pos = -1
	s.spare.Put(c)
}

// virtualNow projects c's virtual time to the current instant without
// settling the server.
func (s *FluidServer) virtualNow(c *ShareClass) float64 {
	return c.v + c.slope*s.k.Now().Sub(s.settled).Seconds()
}

// settle advances every active class's virtual time to the current
// instant at the rates of the last division.
func (s *FluidServer) settle() {
	now := s.k.Now()
	if dt := now.Sub(s.settled).Seconds(); dt > 0 {
		for _, c := range s.active {
			c.v += c.slope * dt
			s.TotalServed += c.Rate * dt
		}
	}
	s.settled = now
}

// reschedule completes drained flows, re-divides capacity among the
// active classes and (re)arms the next-completion event. Callers must
// settle() first.
func (s *FluidServer) reschedule() {
	// Complete the flows that drained (to within fluid-model tolerance)
	// at this instant. The tolerance is relative to the flow's total work
	// so byte-sized and gigacycle-sized flows both terminate cleanly.
	for i := 0; i < len(s.active); {
		c := s.active[i]
		for len(c.heap) > 0 {
			f := c.heap[0]
			rem := (f.mark - c.v) * f.w
			if rem > 1e-9*(1+f.base+c.v*f.w) {
				break
			}
			s.completeNow(f)
		}
		if c.pos == i {
			i++
		}
	}
	if s.flows == 0 {
		s.arm(MaxTime)
		return
	}
	s.policy.Divide(s.capacity, s.active)
	earliest := MaxTime
	for _, c := range s.active {
		c.slope = 0
		if c.Rate <= 0 {
			continue // starved; a future set change will reschedule
		}
		c.slope = c.Rate / c.Weight
		secs := (c.heap[0].mark - c.v) / c.slope
		// Flows that would take centuries of virtual time (Spin loops,
		// effectively-infinite work) get no completion event: converting
		// their ETA to Duration would overflow int64, and any flow-set
		// change reschedules anyway.
		if secs > 1e9 {
			continue
		}
		// Clamp to ≥1 ns so float rounding can never schedule a
		// zero-delay completion loop at one timestamp.
		delta := Duration(secs * float64(Second))
		if delta < Nanosecond {
			delta = Nanosecond
		}
		if eta := s.k.Now().Add(delta); eta < earliest {
			earliest = eta
		}
	}
	s.arm(earliest)
}

// arm points the next-completion event at t; MaxTime means none (every
// class starved or effectively infinite). An event already pending at t
// is kept: a change confined to one class leaves the others' completion
// times as they were, and keeping the event saves the kernel a cancel
// and a reschedule, two heap fixes.
func (s *FluidServer) arm(t Time) {
	if s.next.Pending() && s.next.When() == t {
		return
	}
	s.next.Cancel()
	s.next = Timer{}
	if t != MaxTime {
		s.next = s.k.At(t, s.onNext)
	}
}

func (s *FluidServer) completeNow(f *Flow) {
	rem := s.detach(f)
	s.TotalServed += rem
	f.mark, f.base = 0, f.base+rem
	if f.onDone != nil {
		s.k.Immediately(f.onDone)
	}
}

// Utilisation returns the fraction of capacity used since the epoch,
// given the current virtual time.
func (s *FluidServer) Utilisation() float64 {
	s.settle()
	elapsed := s.k.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return s.TotalServed / (s.capacity * elapsed)
}

// The class heap is a hand-rolled binary min-heap on (tag, seq) that
// keeps each flow's index current, so removal and re-keying of an
// arbitrary flow cost O(log n) without container/heap's interface calls.

func flowLess(a, b *Flow) bool {
	if a.mark != b.mark {
		return a.mark < b.mark
	}
	return a.seq < b.seq
}

func (c *ShareClass) push(f *Flow) {
	f.hidx = int32(len(c.heap))
	c.heap = append(c.heap, f)
	c.up(len(c.heap) - 1)
}

// remove deletes the flow at heap index i.
func (c *ShareClass) remove(i int) {
	last := len(c.heap) - 1
	if i != last {
		c.swap(i, last)
	}
	c.heap[last] = nil
	c.heap = c.heap[:last]
	if i != last {
		c.fix(i)
	}
}

// fix restores the heap after the flow at index i changed its tag.
func (c *ShareClass) fix(i int) {
	if !c.down(i) {
		c.up(i)
	}
}

func (c *ShareClass) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	h[i].hidx = int32(i)
	h[j].hidx = int32(j)
}

func (c *ShareClass) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !flowLess(c.heap[i], c.heap[parent]) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

// down sifts the flow at i toward the leaves, reporting whether it moved.
func (c *ShareClass) down(i int) bool {
	start, n := i, len(c.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && flowLess(c.heap[right], c.heap[left]) {
			best = right
		}
		if !flowLess(c.heap[best], c.heap[i]) {
			break
		}
		c.swap(i, best)
		i = best
	}
	return i > start
}
