package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/accounting"
	"repro/internal/autoscale"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/soda"
)

const (
	// ctlHosts is the fleet size. It must stay at or below 90: hup.New
	// gives host i the address 128.10.9.(10+i), and from the 91st host on
	// that address collides with daemon 0's node pool 128.10.9.100–119.
	ctlHosts = 64
	// ctlOpsPerRep is the length of one repetition's operation stream.
	ctlOpsPerRep = 1000
	// ctlMaxLive caps the services alive at once, far below what the
	// fleet can admit, so no operation is refused.
	ctlMaxLive = 24
	// ctlWindowN is the window the operation stream is cut into for
	// step_tail_ms: its rule percentile is p95, and the median over every
	// window of the run is reported. A repetition's p99 is its tenth
	// slowest operation, which moves with the seed's stream and with host
	// stalls: over six seeds it spread 0.15 of its median, this 0.07.
	ctlWindowN = 200
	// ctlTickEvery is how many operations pass between autoscale ticks.
	ctlTickEvery = 10
	// ctlSnapshotEvery keeps the journal from compacting during a
	// repetition. Master admission journals service-admitted before it
	// registers the service, so a snapshot triggered by that record omits
	// the new service; when it is the last snapshot, replay loses the
	// service and no longer matches the live digest. Until that is fixed,
	// the churn measures journal appends and a full replay, not compaction.
	ctlSnapshotEvery = 1 << 30
)

// ctlRep is one repetition of the control-plane churn.
type ctlRep struct {
	setup, wall               time.Duration
	steps                     []float64 // wall ms of every create, resize and teardown
	create, resize, teardown  []float64 // the same, by kind
	tickUs                    []float64
	ops, failed               int
	digestMs, replayMs        float64
	live, replayed            string
	journalBytes, journalRecs int64
	events                    uint64
	netBytes                  int64
}

// buildFleet builds the 64-host platform with HA journaling, cooperative
// chunk distribution and usage accounting (the autoscaler's signal
// source), and publishes the images the churn draws from.
func buildFleet(seed uint64) (*hup.Testbed, []*image.Image, error) {
	hosts := make([]hostos.Spec, ctlHosts)
	for i := range hosts {
		s := hostos.Seattle()
		if i%2 == 1 {
			s = hostos.Tacoma()
		}
		s.Name = fmt.Sprintf("host-%02d", i)
		hosts[i] = s
	}
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		return nil, nil, err
	}
	if _, err := tb.EnableHA(soda.HAConfig{SnapshotEvery: ctlSnapshotEvery}); err != nil {
		return nil, nil, err
	}
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	tb.EnableAccounting(accounting.Options{})
	var imgs []*image.Image
	for i, datasetMB := range []int{0, 2, 4} {
		img := hup.WebContentImage(fmt.Sprintf("img-%d", i), datasetMB)
		if err := tb.Publish(img); err != nil {
			return nil, nil, err
		}
		imgs = append(imgs, img)
	}
	return tb, imgs, nil
}

// ctlPolicy is the autoscale policy every third service carries. With no
// request load its utilization sits below LowWater, so the ticks the
// benchmark drives shrink those services toward Min.
func ctlPolicy() autoscale.Policy {
	return autoscale.Policy{
		Min: 1, Max: 3,
		TargetUtilization: 0.5, HighWater: 0.7, LowWater: 0.2,
		MaxStep: 1, UpCooldown: 2 * sim.Second, DownCooldown: 5 * sim.Second,
	}
}

// runCtlRep builds a fleet and runs one seeded operation stream through
// it, then takes the live state digest and replays the journal. A tracer
// profiles the operation stream.
func runCtlRep(seed uint64, tr *tracer) (*ctlRep, error) {
	rep := &ctlRep{}
	runtime.GC() // start every repetition from the same heap
	t0 := time.Now()
	tb, imgs, err := buildFleet(seed)
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(t0)

	rng := sim.NewRNG(seed ^ 0xc7c)
	m := soda.MachineConfig{CPUMHz: 64, MemoryMB: 64, DiskMB: 128, BandwidthMbps: 1}
	var live []string            // alive services, in creation order
	manual := map[string]int{}   // capacity of services without a policy
	events0 := tb.K.Dispatched() // the fleet build is setup, not work
	bytes0 := tb.Net.Transferred
	next := 0

	if err := tr.begin(); err != nil {
		return nil, err
	}
	w0 := time.Now()
	for i := 0; i < ctlOpsPerRep; i++ {
		kind := "create"
		r := rng.Float64()
		switch {
		case len(live) < 4:
		case len(live) >= ctlMaxLive && r < 0.5, len(live) < ctlMaxLive && r >= 0.75:
			kind = "teardown"
		case len(manual) > 0 && (len(live) >= ctlMaxLive || r >= 0.4):
			kind = "resize"
		}
		var err error
		s := time.Now()
		switch kind {
		case "create":
			name := fmt.Sprintf("svc-%03d", next)
			img := imgs[rng.Intn(len(imgs))]
			spec := soda.ServiceSpec{
				Name: name, ImageName: img.Name, Repository: hup.RepoIP,
				Requirement:  soda.Requirement{N: 1 + rng.Intn(3), M: m},
				GuestProfile: img.SystemServices,
			}
			if next%3 == 0 {
				spec.Requirement.N = 3
				spec.Autoscale = ctlPolicy()
			}
			next++
			if _, err = tb.CreateService("secret", spec); err == nil {
				live = append(live, name)
				if !spec.Autoscale.Enabled() {
					manual[name] = spec.Requirement.N
				}
			}
		case "resize":
			name := pickManual(live, manual, rng)
			n := 1 + rng.Intn(3)
			if n == manual[name] {
				n = n%3 + 1
			}
			if _, err = tb.Resize("secret", name, n); err == nil {
				manual[name] = n
			}
		case "teardown":
			j := rng.Intn(len(live))
			name := live[j]
			if err = tb.Teardown("secret", name); err == nil {
				live = append(live[:j], live[j+1:]...)
				delete(manual, name)
			}
		}
		ms := float64(time.Since(s).Nanoseconds()) / 1e6
		rep.ops++
		if err != nil {
			rep.failed++
		}
		rep.steps = append(rep.steps, ms)
		switch kind {
		case "create":
			rep.create = append(rep.create, ms)
		case "resize":
			rep.resize = append(rep.resize, ms)
		default:
			rep.teardown = append(rep.teardown, ms)
		}
		if (i+1)%ctlTickEvery == 0 {
			s := time.Now()
			tb.Master.AutoscaleTick()
			rep.tickUs = append(rep.tickUs, float64(time.Since(s).Nanoseconds())/1e3)
			// Let any resize the tick decided settle before the next
			// operation, so the stream never races the control loop.
			for w := 0; autoscalePending(tb.LeaderMaster()) && w < 600; w++ {
				tb.K.RunFor(100 * sim.Millisecond)
			}
		}
	}
	rep.wall = time.Since(w0)
	if err := tr.end(); err != nil {
		return nil, err
	}
	rep.events = tb.K.Dispatched() - events0
	rep.netBytes = tb.Net.Transferred - bytes0

	s := time.Now()
	rep.live = tb.LeaderMaster().StateDigest()
	rep.digestMs = float64(time.Since(s).Nanoseconds()) / 1e6
	jb := tb.Cluster.Journal().Bytes()
	s = time.Now()
	rep.replayed, _ = soda.ReplayDigest(jb)
	rep.replayMs = float64(time.Since(s).Nanoseconds()) / 1e6
	snap := tb.Registry.Snapshot()
	rep.journalBytes = snap.Counter("soda_journal_bytes_total")
	rep.journalRecs = snap.Counter("soda_journal_records_total")
	return rep, nil
}

// pickManual chooses a live service without an autoscale policy.
func pickManual(live []string, manual map[string]int, rng *sim.RNG) string {
	var cands []string
	for _, n := range live {
		if _, ok := manual[n]; ok {
			cands = append(cands, n)
		}
	}
	return cands[rng.Intn(len(cands))]
}

// autoscalePending reports whether any autoscaler has a resize in flight.
func autoscalePending(m *soda.Master) bool {
	for _, v := range m.AutoscaleReport() {
		if v.Pending {
			return true
		}
	}
	return false
}

// runCtlChurn repeats the churn on fresh fleets until the budget is
// spent. Every repetition uses the same seed, so their state digests must
// agree, and each one's replayed journal must reproduce its live digest.
func runCtlChurn(cfg runConfig) (*report, error) {
	out := newReport()
	// The operations are timed in both passes; tracing adds the profile.
	plain, traced, tr, err := repeat(cfg, func(tr *tracer) (*ctlRep, error) { return runCtlRep(cfg.seed, tr) })
	if err != nil {
		return nil, err
	}
	all := append(append([]*ctlRep(nil), plain...), traced...)
	first := all[0]
	same, replayOK := true, true
	for _, r := range all {
		same = same && r.live == first.live
		replayOK = replayOK && r.replayed == r.live
		out.attempted += int64(r.ops)
		out.failed += int64(r.failed)
	}
	out.check(digestCheck(cfg), same, "%d repetitions, StateDigest %.16s", len(all), first.live)
	out.check("journal replay = live", replayOK, "ReplayDigest %.16s", first.replayed)

	reps := plain
	if cfg.trace {
		reps = traced
	}

	var setups, rates []float64
	var steps [][]float64
	var create, resize, teardown, ticks, digests, replays []float64
	var ops int64
	var wall time.Duration
	var events uint64
	for _, r := range reps {
		wall += r.wall
		events += r.events
		ops += int64(r.ops)
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		steps = append(steps, r.steps)
		create = append(create, r.create...)
		resize = append(resize, r.resize...)
		teardown = append(teardown, r.teardown...)
		ticks = append(ticks, r.tickUs...)
		digests = append(digests, r.digestMs)
		replays = append(replays, r.replayMs)
	}
	rate := ctlRate(reps)
	st := combine(windows(steps, ctlWindowN))
	fmt.Fprintf(cfg.log, "  %d repetitions of %d operations on %d hosts; rates %.4g; tail is the median of %d-operation windows' p%g\n",
		len(reps), ctlOpsPerRep, ctlHosts, rates, ctlWindowN, st.Level*100)

	if !cfg.trace {
		out.values["setup_s"] = median(setups)
		out.values["work_per_s"] = rate
		out.setTiming(st)
		out.name("ctl_ops_per_s", rate, "1/s", "over all %d repetitions", len(reps))
		return out, nil
	}

	v := out.values
	out.setTrace(tr, ops)
	v["trace.overhead"] = ctlRate(plain) / rate
	v["sim.events"] = float64(first.events)
	v["sim.events_per_s"] = float64(events) / wall.Seconds()
	v["simnet.bytes"] = float64(first.netBytes)
	setPercentiles(v, "soda.create_ms", summarize(create))
	setPercentiles(v, "soda.resize_ms", summarize(resize))
	setPercentiles(v, "soda.teardown_ms", summarize(teardown))
	v["soda.autoscale_tick_us"] = median(ticks)
	v["soda.state_digest_ms"] = median(digests)
	v["journal.bytes"] = float64(first.journalBytes)
	v["journal.records"] = float64(first.journalRecs)
	v["journal.replay_ms"] = median(replays)
	return out, nil
}

// setPercentiles stores a timing as a p50 metric and its ".tail" twin.
func setPercentiles(v map[string]float64, name string, t timing) {
	v[name] = t.P50
	v[name+".tail"] = t.Tail
}

// ctlRate is the operations per host second over all of reps together,
// for the reason simRate gives.
func ctlRate(reps []*ctlRep) float64 {
	var ops int
	var wall time.Duration
	for _, r := range reps {
		ops += r.ops
		wall += r.wall
	}
	return float64(ops) / wall.Seconds()
}
