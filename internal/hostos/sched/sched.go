// Package sched implements the CPU scheduling policies contrasted in the
// paper's Figure 5: the per-process fair sharing of an unmodified Linux
// host ("FairShare") and SODA's coarse-grain proportional-share scheduler
// that enforces per-userid CPU shares ("Proportional").
//
// In SODA every process inside one virtual service node bears the same
// userid (§4.2), so enforcing shares per userid is exactly enforcing
// shares per virtual service node.
package sched

import (
	"fmt"

	"repro/internal/sim"
)

// FlowMeta is attached to every CPU flow submitted to the host so
// schedulers can see which userid (virtual service node) owns the work.
type FlowMeta struct {
	// UID is the host userid the flow's process runs under.
	UID int
	// PID identifies the owning process, for traces.
	PID int
	// Guest marks work executed inside a UML guest.
	Guest bool
}

// MetaOf extracts the scheduler metadata from a flow, panicking on flows
// submitted without it — that is a wiring bug, not a runtime condition.
func MetaOf(f *sim.Flow) *FlowMeta {
	m, ok := f.Meta.(*FlowMeta)
	if !ok {
		panic(fmt.Sprintf("sched: flow %q submitted without FlowMeta", f.Label))
	}
	return m
}

// Scheduler is a CPU share policy for the host's fluid CPU: it classifies
// each runnable flow once, when the burst starts, and divides the CPU
// among the active classes on every change of the runnable set.
// Implementations must be deterministic functions of (capacity, active
// classes, configured weights).
type Scheduler interface {
	sim.SharePolicy
	// Name identifies the policy in experiment output.
	Name() string
	// SetShare configures the CPU share (an arbitrary positive weight,
	// e.g. reserved MHz) for a userid. Policies that ignore shares accept
	// and discard them. A new share takes effect at the next change of
	// the runnable set.
	SetShare(uid int, weight float64)
	// ClearShare removes a userid's configured share.
	ClearShare(uid int)
}

// FairShare models the unmodified Linux host OS: every runnable *process*
// gets an equal share of the CPU, so a virtual service node with more
// runnable processes receives proportionally more CPU — the unfairness
// visible in Figure 5(a).
type FairShare struct{ sim.EqualShare }

// NewFairShare returns the unmodified-Linux policy.
func NewFairShare() *FairShare { return &FairShare{} }

// Name implements Scheduler.
func (*FairShare) Name() string { return "fair-share (unmodified Linux)" }

// SetShare implements Scheduler; FairShare has no per-userid state.
func (*FairShare) SetShare(int, float64) {}

// ClearShare implements Scheduler.
func (*FairShare) ClearShare(int) {}

// Proportional is SODA's coarse-grain proportional-share CPU scheduler:
// capacity is divided among *userids* in proportion to their configured
// weights (work-conserving: only userids with runnable work participate),
// then equally among each userid's runnable processes. A userid that
// never called SetShare (e.g. host-OS system processes) weighs 1.
type Proportional struct {
	weights map[int]float64
}

// NewProportional returns the SODA scheduler with no configured shares.
func NewProportional() *Proportional {
	return &Proportional{weights: make(map[int]float64)}
}

// Name implements Scheduler.
func (*Proportional) Name() string { return "proportional-share (SODA)" }

// SetShare implements Scheduler.
func (p *Proportional) SetShare(uid int, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("sched: non-positive share %v for uid %d", weight, uid))
	}
	p.weights[uid] = weight
}

// ClearShare implements Scheduler.
func (p *Proportional) ClearShare(uid int) { delete(p.weights, uid) }

// Share returns the configured weight for uid and whether one is set.
func (p *Proportional) Share(uid int) (float64, bool) {
	w, ok := p.weights[uid]
	return w, ok
}

// Classify implements sim.SharePolicy: one class per userid, processes
// weighted equally within it.
func (*Proportional) Classify(f *sim.Flow) (uint64, float64) {
	return uint64(MetaOf(f).UID), 1
}

// Divide implements sim.SharePolicy: the active userids split the CPU in
// proportion to their configured weights.
func (p *Proportional) Divide(capacity float64, classes []*sim.ShareClass) {
	var totalWeight float64
	for _, c := range classes {
		totalWeight += p.weightOf(int(c.Key))
	}
	for _, c := range classes {
		c.Rate = capacity * p.weightOf(int(c.Key)) / totalWeight
	}
}

func (p *Proportional) weightOf(uid int) float64 {
	if w, ok := p.weights[uid]; ok {
		return w
	}
	return 1
}
