// Package autoscale defines the declarative scaling policy and the pure
// decision function of SODA's demand-driven autoscaler. The paper's §3.4
// promises that the Master "will either adjust the resources in the
// current virtual service nodes, or add/remove virtual service node(s)";
// this package decides *when* and *by how much*, from the load signals
// the platform already produces (accounting utilization, SLO burn rates,
// retained slow traces, switch drops). The control loop that gathers the
// signals, journals the decisions, and drives Master.ResizeService lives
// in internal/soda; everything here is side-effect free so decisions are
// trivially deterministic and unit-testable.
package autoscale

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Policy is the declarative per-service scaling contract. The zero value
// means "no autoscaling" (Enabled reports false); a policy with Max set
// is normalized before use, so only the bounds are mandatory.
type Policy struct {
	// Min and Max bound the service's total machine-instance count (the n
	// of its <n, M>). Min defaults to 1; Max enables the policy.
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// TargetUtilization is the delivered-over-reserved CPU fraction the
	// controller steers toward (default 0.70). Proportional sizing uses
	// it: desired = ceil(capacity * utilization / target).
	TargetUtilization float64 `json:"target,omitempty"`
	// HighWater and LowWater bracket the hysteresis band: utilization
	// above HighWater wants growth, below LowWater wants shrinkage, and
	// anything between holds. Defaults: target+0.15 and target/2.
	HighWater float64 `json:"high,omitempty"`
	LowWater  float64 `json:"low,omitempty"`
	// BurnThreshold is the fast burn rate at or above which the
	// controller scales up regardless of utilization — the SLO error
	// budget is being consumed faster than it accrues (default 1.0).
	BurnThreshold float64 `json:"burn,omitempty"`
	// MaxStep caps how many instances one decision may add or remove
	// (default 1).
	MaxStep int `json:"step,omitempty"`
	// UpCooldown and DownCooldown are the minimum gaps after a scale-up
	// (resp. any resize) before the next move in that direction; the
	// down cooldown also runs from the last scale-up so a spike's
	// capacity lingers long enough to prove itself idle. Defaults 10s
	// and 30s.
	UpCooldown   sim.Duration `json:"up,omitempty"`
	DownCooldown sim.Duration `json:"down,omitempty"`
}

// Enabled reports whether the policy asks for autoscaling at all.
func (p Policy) Enabled() bool { return p.Max > 0 }

// Normalize fills defaulted fields. A disabled policy is returned
// unchanged.
func (p Policy) Normalize() Policy {
	if !p.Enabled() {
		return p
	}
	if p.Min <= 0 {
		p.Min = 1
	}
	if p.TargetUtilization <= 0 {
		p.TargetUtilization = 0.70
	}
	if p.HighWater <= 0 {
		p.HighWater = p.TargetUtilization + 0.15
	}
	if p.LowWater <= 0 {
		p.LowWater = p.TargetUtilization / 2
	}
	if p.BurnThreshold <= 0 {
		p.BurnThreshold = 1.0
	}
	if p.MaxStep <= 0 {
		p.MaxStep = 1
	}
	if p.UpCooldown <= 0 {
		p.UpCooldown = 10 * sim.Second
	}
	if p.DownCooldown <= 0 {
		p.DownCooldown = 30 * sim.Second
	}
	return p
}

// Validate reports the first problem with the policy, or nil. The zero
// policy is valid (disabled). Validation normalizes first, so a policy
// that only sets bounds is judged with its defaults filled.
func (p Policy) Validate() error {
	if !p.Enabled() {
		if p.Min != 0 || p.TargetUtilization != 0 {
			return fmt.Errorf("autoscale: policy sets fields but no max")
		}
		return nil
	}
	p = p.Normalize()
	switch {
	case p.Min < 1:
		return fmt.Errorf("autoscale: min %d below 1", p.Min)
	case p.Max < p.Min:
		return fmt.Errorf("autoscale: max %d below min %d", p.Max, p.Min)
	case p.TargetUtilization >= 1:
		return fmt.Errorf("autoscale: target utilization %.2f not below 1", p.TargetUtilization)
	case p.LowWater >= p.TargetUtilization:
		return fmt.Errorf("autoscale: low water %.2f not below target %.2f", p.LowWater, p.TargetUtilization)
	case p.HighWater <= p.TargetUtilization:
		return fmt.Errorf("autoscale: high water %.2f not above target %.2f", p.HighWater, p.TargetUtilization)
	case p.MaxStep < 1:
		return fmt.Errorf("autoscale: max step %d below 1", p.MaxStep)
	}
	return nil
}

// String renders the normalized policy in the service configuration
// file's "# autoscale" stanza form; ParsePolicy reads it back.
func (p Policy) String() string {
	p = p.Normalize()
	return fmt.Sprintf("min=%d max=%d target=%.2f high=%.2f low=%.2f burn=%.1f step=%d up=%s down=%s",
		p.Min, p.Max, p.TargetUtilization, p.HighWater, p.LowWater,
		p.BurnThreshold, p.MaxStep,
		p.UpCooldown.String(), p.DownCooldown.String())
}

// ParsePolicy reads the String/stanza form back into a Policy. Unknown
// keys are rejected so a typo in a hand-edited stanza surfaces.
func ParsePolicy(s string) (Policy, error) {
	var p Policy
	for _, field := range strings.Fields(s) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Policy{}, fmt.Errorf("autoscale: bad field %q", field)
		}
		var err error
		switch k {
		case "min":
			p.Min, err = strconv.Atoi(v)
		case "max":
			p.Max, err = strconv.Atoi(v)
		case "target":
			p.TargetUtilization, err = strconv.ParseFloat(v, 64)
		case "high":
			p.HighWater, err = strconv.ParseFloat(v, 64)
		case "low":
			p.LowWater, err = strconv.ParseFloat(v, 64)
		case "burn":
			p.BurnThreshold, err = strconv.ParseFloat(v, 64)
		case "step":
			p.MaxStep, err = strconv.Atoi(v)
		case "up":
			p.UpCooldown, err = parseDuration(v)
		case "down":
			p.DownCooldown, err = parseDuration(v)
		default:
			return Policy{}, fmt.Errorf("autoscale: unknown key %q", k)
		}
		if err != nil {
			return Policy{}, fmt.Errorf("autoscale: bad %s value %q", k, v)
		}
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// parseDuration reads sim.Duration's String form ("10s", "1m30s",
// "250ms"). sim.Duration is time.Duration under a virtual clock, so the
// standard parser applies.
func parseDuration(s string) (sim.Duration, error) {
	return time.ParseDuration(s)
}

// Signals is one tick's view of a service's load, gathered by the
// control loop from the platform's existing instruments.
type Signals struct {
	// At is the tick's virtual timestamp.
	At sim.Time
	// Capacity is the service's current machine-instance count.
	Capacity int
	// Utilization is recent delivered CPU over the (un-inflated)
	// reservation, from the accounting meter. May exceed 1 briefly.
	Utilization float64
	// FastBurn and SlowBurn are the SLO evaluator's multi-window burn
	// rates; Violating is its latched breach state.
	FastBurn, SlowBurn float64
	Violating          bool
	// DropDelta counts switch-refused requests since the previous tick.
	DropDelta int64
	// SlowTraceDelta counts reqtrace retentions of over-SLO-threshold
	// requests since the previous tick.
	SlowTraceDelta uint64
}

// State is the controller's per-service memory between ticks. The soda
// control loop commits every change to it as a journal record before
// acting, so a warm
// standby reconstructs it exactly and a failover can neither
// double-scale nor lose a pending resize.
type State struct {
	// LastUp and LastDown are when the last resize in each direction was
	// decided (zero = never); the cooldowns measure from them.
	LastUp   sim.Time `json:"last_up_ns,omitempty"`
	LastDown sim.Time `json:"last_down_ns,omitempty"`
	// Ups, Downs, and Blocked count completed scale-ups, completed
	// scale-downs, and wanted-but-prevented moves.
	Ups     uint64 `json:"ups,omitempty"`
	Downs   uint64 `json:"downs,omitempty"`
	Blocked uint64 `json:"blocked,omitempty"`
	// Pending marks a decided resize whose completion has not been
	// journaled yet; PendingTarget and PendingDir describe it. A new
	// leader re-issues the resize to the absolute target, which is
	// idempotent.
	Pending       bool   `json:"pending,omitempty"`
	PendingTarget int    `json:"pending_target,omitempty"`
	PendingDir    string `json:"pending_dir,omitempty"`
}

// Direction classifies a decision.
type Direction int

// Decision directions.
const (
	// Hold: no action wanted (within band, at a bound while idle, or a
	// resize is in flight).
	Hold Direction = iota
	// Up: grow to Decision.Target instances.
	Up
	// Down: shrink to Decision.Target instances.
	Down
	// Blocked: the policy wanted a move but a bound or cooldown
	// prevented it.
	Blocked
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Hold:
		return "hold"
	case Up:
		return "up"
	case Down:
		return "down"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("direction(%d)", int(d))
}

// Decision is one tick's verdict.
type Decision struct {
	Dir Direction
	// Target is the desired total capacity (meaningful for Up and Down).
	Target int
	// Reason explains the verdict, deterministically worded.
	Reason string
}

// Decide is the controller: a pure function of policy, remembered state,
// and this tick's signals. It mutates nothing — the caller journals the
// decision and then updates State — so identical inputs always produce
// the identical decision, which is what makes same-seed runs and journal
// replay bit-exact.
func Decide(p Policy, st State, sig Signals) Decision {
	p = p.Normalize()
	if st.Pending {
		return Decision{Dir: Hold, Reason: "resize in flight"}
	}
	n := sig.Capacity
	if n <= 0 {
		return Decision{Dir: Hold, Reason: "no capacity yet"}
	}

	// Scale-up pressure. Urgent signals (budget burn, latched violation,
	// switch drops) bypass the utilization band: by the time they fire,
	// waiting for the meter to agree costs SLO.
	urgent := sig.Violating || sig.FastBurn >= p.BurnThreshold || sig.DropDelta > 0
	busy := sig.Utilization > p.HighWater || (sig.SlowTraceDelta > 0 && sig.Utilization > p.TargetUtilization)
	if urgent || busy {
		if n >= p.Max {
			return Decision{Dir: Blocked, Target: n, Reason: fmt.Sprintf("scale-up wanted at max %d", p.Max)}
		}
		if st.LastUp != 0 && sig.At.Sub(st.LastUp) < p.UpCooldown {
			return Decision{Dir: Blocked, Target: n, Reason: "scale-up wanted in up cooldown"}
		}
		target := proportionalTarget(n, sig.Utilization, p.TargetUtilization)
		if urgent && target < n+p.MaxStep {
			// Urgency takes the full step: a utilization reading capped
			// near 1 under-estimates true demand when requests are
			// already being dropped or burning budget.
			target = n + p.MaxStep
		}
		target = clamp(target, n+1, minInt(n+p.MaxStep, p.Max))
		return Decision{Dir: Up, Target: target, Reason: upReason(sig, p)}
	}

	// Scale-down wants a genuinely quiet service: utilization under the
	// low-water mark, burn under control, and no slow traces this tick.
	if sig.Utilization < p.LowWater && sig.FastBurn < 1 && !sig.Violating && sig.SlowTraceDelta == 0 {
		if n <= p.Min {
			return Decision{Dir: Hold, Reason: fmt.Sprintf("idle at min %d", p.Min)}
		}
		if st.LastUp != 0 && sig.At.Sub(st.LastUp) < p.DownCooldown {
			return Decision{Dir: Blocked, Target: n, Reason: "scale-down wanted in post-up cooldown"}
		}
		if st.LastDown != 0 && sig.At.Sub(st.LastDown) < p.DownCooldown {
			return Decision{Dir: Blocked, Target: n, Reason: "scale-down wanted in down cooldown"}
		}
		target := proportionalTarget(n, sig.Utilization, p.TargetUtilization)
		target = clamp(target, maxInt(n-p.MaxStep, p.Min), n-1)
		return Decision{Dir: Down, Target: target,
			Reason: fmt.Sprintf("utilization %.2f under low water %.2f", sig.Utilization, p.LowWater)}
	}

	return Decision{Dir: Hold, Reason: "within band"}
}

// proportionalTarget sizes capacity so predicted utilization lands on
// target: ceil(capacity * utilization / target).
func proportionalTarget(capacity int, util, target float64) int {
	if target <= 0 {
		return capacity
	}
	desired := float64(capacity) * util / target
	t := int(desired)
	if float64(t) < desired {
		t++
	}
	return t
}

// upReason names the dominant scale-up signal, most urgent first.
func upReason(sig Signals, p Policy) string {
	switch {
	case sig.DropDelta > 0:
		return fmt.Sprintf("switch dropped %d request(s)", sig.DropDelta)
	case sig.Violating:
		return "SLO violation latched"
	case sig.FastBurn >= p.BurnThreshold:
		return fmt.Sprintf("fast burn %.1f over threshold %.1f", sig.FastBurn, p.BurnThreshold)
	case sig.Utilization > p.HighWater:
		return fmt.Sprintf("utilization %.2f over high water %.2f", sig.Utilization, p.HighWater)
	default:
		return fmt.Sprintf("%d slow trace(s) over target utilization", sig.SlowTraceDelta)
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
