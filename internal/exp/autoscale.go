package exp

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

// AutoscaleResult is the closed-loop demand-driven scaling experiment: a
// seeded open-loop ramp saturates a deliberately small CPU reservation,
// the per-service controller must grow the service on the utilization
// signal alone — before the SLO evaluator ever latches a breach — a HUP
// host is crash-stopped mid-scale-up to interleave self-healing with the
// control loop, and the trough after the ramp must return the service to
// its floor without flapping. All fields are JSON-tagged so sodabench
// -autoscale can emit the run as a machine-readable report
// (BENCH_autoscale.json in CI).
type AutoscaleResult struct {
	Seed           uint64  `json:"seed"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	// RampSeconds is how long the saturating open-loop load ran.
	RampSeconds float64 `json:"ramp_seconds"`
	// ScaleUpAtS is when the first up decision fired (seconds after the
	// load started; negative means the loop never scaled up).
	ScaleUpAtS float64 `json:"scale_up_at_s"`
	// LatchedAtScaleUp reports whether the SLO evaluator had already
	// latched a breach when the first up decision fired: the utilization
	// signal must lead, with SLO burn only the backstop.
	LatchedAtScaleUp bool `json:"latched_at_scale_up"`
	// SLOViolations is the evaluator's end-of-run violation count.
	SLOViolations int `json:"slo_violations"`
	// MaxCapacity is the high-water capacity the ramp reached;
	// FinalCapacity is where the trough left the service.
	MaxCapacity   int `json:"max_capacity"`
	FinalCapacity int `json:"final_capacity"`
	// Ups / Downs / Blocked are the controller's completed and refused
	// moves over the whole run.
	Ups     uint64 `json:"ups"`
	Downs   uint64 `json:"downs"`
	Blocked uint64 `json:"blocked"`
	// Pending reports a resize still in flight at rest (must be false).
	Pending bool `json:"pending"`
	// CrashAtS / RestoreAtS bound the injected host outage.
	CrashAtS   float64 `json:"crash_at_s"`
	RestoreAtS float64 `json:"restore_at_s"`
	// Client-side accounting over the ramp.
	Issued    int `json:"issued"`
	Completed int `json:"completed"`
	Dropped   int `json:"dropped"`
	// DigestMatch: replaying the end-of-run journal reconstructs the
	// leader's state — autoscaler policies, counters, and cooldown
	// clocks included — byte-for-byte.
	DigestMatch     bool   `json:"digest_match"`
	ReplayRecords   int    `json:"replay_records"`
	ReplayTruncated bool   `json:"replay_truncated"`
	FinalDigest     string `json:"final_digest"`
	JournalDigest   string `json:"journal_digest"`
	JournalBytes    int    `json:"journal_bytes"`
	// EventSeq is every autoscale event in order; FaultLog the injector's
	// history. Both must be identical across same-seed runs.
	EventSeq []string `json:"event_seq"`
	FaultLog []string `json:"fault_log"`
	// Deterministic reports whether a second same-seed run reproduced the
	// scaling timeline, journal, and state digests exactly.
	Deterministic bool `json:"deterministic"`
}

// autoscalePolicy is the policy under test: floor 1, ceiling 3, scale on
// utilization 0.7/0.2 hysteresis around a 0.5 target, one step at a
// time, 2 s / 5 s cooldowns.
func autoscalePolicy() autoscale.Policy {
	return autoscale.Policy{
		Min:               1,
		Max:               3,
		TargetUtilization: 0.5,
		HighWater:         0.7,
		LowWater:          0.2,
		MaxStep:           1,
		UpCooldown:        2 * sim.Second,
		DownCooldown:      5 * sim.Second,
	}
}

// RunAutoscale executes the autoscaling experiment twice with the same
// seed — the second run only to verify the scaling timeline, journal,
// and digests are bit-identical — and returns the first run's
// measurements. sodabench runs it at seed 1 for 60 virtual seconds.
func RunAutoscale(seed uint64, total sim.Duration) (*AutoscaleResult, error) {
	if total < 30*sim.Second {
		return nil, fmt.Errorf("autoscale: run of %v too short to fit ramp, outage, and trough", total)
	}
	res, err := autoscaleRun(seed, total)
	if err != nil {
		return nil, err
	}
	rerun, err := autoscaleRun(seed, total)
	if err != nil {
		return nil, err
	}
	res.Deterministic = eqStrings(res.EventSeq, rerun.EventSeq) &&
		eqStrings(res.FaultLog, rerun.FaultLog) &&
		res.FinalDigest == rerun.FinalDigest &&
		res.JournalDigest == rerun.JournalDigest &&
		res.ScaleUpAtS == rerun.ScaleUpAtS
	return res, nil
}

// autoscaleRun performs one measured run.
func autoscaleRun(seed uint64, total sim.Duration) (*AutoscaleResult, error) {
	// Three seattle-class hosts, and a memory requirement sized so no
	// host can hold two slices: every scale-up must prime a fresh node
	// over the network, which is the window the host crash lands in.
	second := hostos.Seattle()
	second.Name = "spokane"
	third := hostos.Seattle()
	third.Name = "everett"
	tb, err := hup.New(hup.Config{
		Hosts: []hostos.Spec{hostos.Seattle(), second, third},
		Seed:  seed,
	})
	if err != nil {
		return nil, err
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		return nil, err
	}
	tb.EnableSelfHealing(chaosDetector())
	if _, err := tb.EnableHA(failoverHA()); err != nil {
		return nil, err
	}
	inj := tb.EnableChaos(seed)
	// Accounting must watch the service from activation, but the control
	// loop is armed only after creation settles: priming and boot meter
	// as CPU, and a tick during that transient would scale on boot cost
	// rather than on the demand ramp under test.
	acct := tb.EnableAccounting(accounting.Options{})

	img := hup.WebContentImage("web", 8)
	if err := tb.Publish(img); err != nil {
		return nil, err
	}
	wd := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	m := soda.DefaultM()
	m.CPUMHz = 16     // saturates under a modest open-loop rate
	m.MemoryMB = 1100 // 2×1100 > 2048: growth always primes a new host
	m.DiskMB = 2048
	svc, err := tb.CreateService("secret", soda.ServiceSpec{
		Name:         "web",
		ImageName:    img.Name,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: 1, M: m},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
		SLO:          svcswitch.SLO{LatencyTarget: 500 * sim.Millisecond},
		Autoscale:    autoscalePolicy(),
	})
	if err != nil {
		return nil, err
	}

	// Let the boot transient drain out of the usage meter, then arm the
	// control loop on a quiet steady service.
	tb.K.RunFor(5 * sim.Second)
	tb.EnableAutoscaling(hup.AutoscaleOptions{TickEvery: 500 * sim.Millisecond})

	ramp := sim.Duration(float64(total) * 0.5)
	crashAt := sim.Duration(float64(total) * 0.15)
	outage := sim.Duration(float64(total) * 0.15)
	res := &AutoscaleResult{
		Seed:           seed,
		VirtualSeconds: total.Seconds(),
		RampSeconds:    ramp.Seconds(),
		ScaleUpAtS:     -1,
		CrashAtS:       crashAt.Seconds(),
		RestoreAtS:     (crashAt + outage).Seconds(),
	}

	t0 := tb.K.Now() // creation already consumed virtual time
	tb.Master.Observe(func(e soda.Event) {
		if e.Kind != soda.EventAutoscale {
			return
		}
		res.EventSeq = append(res.EventSeq, e.String())
		if res.ScaleUpAtS < 0 && strings.HasPrefix(e.Detail, "up ") {
			res.ScaleUpAtS = e.At.Sub(t0).Seconds()
			if ls, ok := acct.Signals("web"); ok {
				res.LatchedAtScaleUp = ls.Violating
			}
		}
	})

	// Track the high-water capacity on the autoscaler's own tick cadence.
	tb.K.Every(500*sim.Millisecond, func() {
		for _, v := range tb.Cluster.Leader().AutoscaleReport() {
			if v.Service == "web" && v.Capacity > res.MaxCapacity {
				res.MaxCapacity = v.Capacity
			}
		}
	})

	// Crash a host while the ramp is mid-scale-up; restore it later so
	// the loop can still reach its ceiling.
	inj.Schedule(chaos.Fault{At: crashAt, Kind: chaos.HostCrash, Host: "spokane", Duration: outage})
	inj.Arm()

	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.RunOpenLoop(120)
	tb.K.RunUntil(t0.Add(ramp))
	gen.Stop()
	tb.K.RunUntil(t0.Add(total))

	res.Issued, res.Completed, res.Dropped = gen.Issued, gen.Completed, gen.Errors

	lead := tb.Cluster.Leader()
	for _, v := range lead.AutoscaleReport() {
		if v.Service != "web" {
			continue
		}
		res.FinalCapacity = v.Capacity
		res.Ups, res.Downs, res.Blocked = v.Ups, v.Downs, v.Blocked
		res.Pending = v.Pending
	}
	if u, ok := acct.Usage("web"); ok && u.SLO != nil {
		res.SLOViolations = u.SLO.Violations
	}
	for _, r := range inj.History() {
		res.FaultLog = append(res.FaultLog, r.String())
	}

	jb := tb.Cluster.Journal().Bytes()
	res.JournalBytes = len(jb)
	res.JournalDigest = fmt.Sprintf("%x", sha256.Sum256(jb))
	res.FinalDigest = lead.StateDigest()
	var rep journal.ReplayReport
	var replayed string
	replayed, rep = soda.ReplayDigest(jb)
	res.ReplayRecords, res.ReplayTruncated = rep.Records, rep.Truncated
	res.DigestMatch = replayed == res.FinalDigest
	return res, nil
}

// Title implements Result.
func (*AutoscaleResult) Title() string {
	return "Closed-loop autoscaling: demand ramp, host crash mid-scale-up, no-flap trough"
}

// Render implements Result.
func (r *AutoscaleResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title() + "\n\n")
	fmt.Fprintf(&b, "  seed %d, %.0fs virtual; ramp %.0fs at 120 req/s; host spokane dead %.1fs–%.1fs\n",
		r.Seed, r.VirtualSeconds, r.RampSeconds, r.CrashAtS, r.RestoreAtS)
	fmt.Fprintf(&b, "  first scale-up at %.1fs; peak capacity %d; at rest capacity %d\n",
		r.ScaleUpAtS, r.MaxCapacity, r.FinalCapacity)
	fmt.Fprintf(&b, "  moves: %d up, %d down, %d blocked; SLO violations %d\n",
		r.Ups, r.Downs, r.Blocked, r.SLOViolations)
	fmt.Fprintf(&b, "  clients: %d issued, %d completed, %d dropped\n",
		r.Issued, r.Completed, r.Dropped)
	fmt.Fprintf(&b, "  journal: %d record(s) replayed, %d bytes\n\n", r.ReplayRecords, r.JournalBytes)
	for _, e := range r.EventSeq {
		b.WriteString("  " + e + "\n")
	}
	b.WriteString("\n")
	b.WriteString(shapeCheck("loop scaled up under the saturating ramp", r.ScaleUpAtS >= 0) + "\n")
	b.WriteString(shapeCheck("utilization signal led: SLO never latched before the scale-up", !r.LatchedAtScaleUp) + "\n")
	b.WriteString(shapeCheck("capacity stayed within the policy bounds [1,3]", r.MaxCapacity >= 2 && r.MaxCapacity <= 3) + "\n")
	b.WriteString(shapeCheck("trough returned the service to its floor", r.FinalCapacity == 1 && !r.Pending) + "\n")
	b.WriteString(shapeCheck("hysteresis and cooldowns bounded oscillation", r.Ups <= 3 && r.Downs <= 3) + "\n")
	b.WriteString(shapeCheck("host crash and restore interleaved with the scaling", len(r.FaultLog) >= 2) + "\n")
	b.WriteString(shapeCheck("data plane served requests under the ramp", r.Completed > 0 || r.Dropped == 0) + "\n")
	b.WriteString(shapeCheck("journal replay reconstructs the controller state byte-for-byte",
		r.DigestMatch && !r.ReplayTruncated) + "\n")
	b.WriteString(shapeCheck("same seed reproduces the identical scaling timeline and digests", r.Deterministic) + "\n")
	return b.String()
}
