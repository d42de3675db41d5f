package hostos

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hostos/sched"
	"repro/internal/sim"
)

// TestCPUCyclesMatchSortedSum drives a seeded mix of Exec, completions
// and Kill, some kills landing as events at a burst's completion instant,
// and checks after every step that the ledger reads equal, bit for bit,
// the sum the reads once computed: the booked cycles plus the Served()
// of every live burst, sorted by a submit sequence the test keeps itself.
func TestCPUCyclesMatchSortedSum(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched func() sched.Scheduler
	}{
		{"fair", func() sched.Scheduler { return sched.NewFairShare() }},
		{"proportional", func() sched.Scheduler {
			p := sched.NewProportional()
			for uid := 1; uid <= 3; uid++ {
				p.SetShare(uid, 0.1*float64(uid)+0.07)
			}
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCPUCyclesMatchSortedSum(t, tc.sched(), 7)
		})
	}
}

func checkCPUCyclesMatchSortedSum(t *testing.T, s sched.Scheduler, seed uint64) {
	k, h := newSeattle(t, s)
	rng := sim.NewRNG(seed)
	type burst struct {
		seq uint64
		p   *Process
	}
	live := make(map[*sim.Flow]burst)
	var seq uint64
	var procs []*Process
	kill := func(p *Process) {
		h.Kill(p)
		for f, b := range live {
			if b.p == p {
				delete(live, f)
			}
		}
	}
	check := func(step int) {
		t.Helper()
		flows := make([]*sim.Flow, 0, len(live))
		for f := range live {
			flows = append(flows, f)
		}
		slices.SortFunc(flows, func(a, b *sim.Flow) int { return cmp.Compare(live[a].seq, live[b].seq) })
		total := h.cpuFinishedAll
		var byUID [4]float64
		for uid := 1; uid <= 3; uid++ {
			if l := h.ledgers[uid]; l != nil {
				byUID[uid] = l.finished
			}
		}
		for _, f := range flows {
			total += f.Served()
			byUID[live[f].p.UID] += f.Served()
		}
		if got := h.TotalCPUCycles(); math.Float64bits(got) != math.Float64bits(total) {
			t.Fatalf("step %d: TotalCPUCycles = %x, sorted sum %x", step, math.Float64bits(got), math.Float64bits(total))
		}
		for uid := 1; uid <= 3; uid++ {
			if got := h.CPUCyclesFor(uid); math.Float64bits(got) != math.Float64bits(byUID[uid]) {
				t.Fatalf("step %d: CPUCyclesFor(%d) = %x, sorted sum %x", step, uid, math.Float64bits(got), math.Float64bits(byUID[uid]))
			}
		}
	}
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(10); {
		case r < 2 || len(procs) == 0:
			procs = append(procs, h.Spawn("p", 1+rng.Intn(3)))
		case r < 7:
			p := procs[rng.Intn(len(procs))]
			if !p.Alive() {
				break
			}
			var f *sim.Flow
			work := cycles.Cycles(1e5 + rng.Float64()*2e8)
			p.Exec(work, func() { delete(live, f) })
			f = &h.live.tail.flow
			seq++
			live[f] = burst{seq: seq, p: p}
		case r < 8:
			kill(procs[rng.Intn(len(procs))])
		case r < 9:
			p := procs[rng.Intn(len(procs))]
			k.After(sim.Duration(rng.Intn(int(20*sim.Millisecond))), func() { kill(p) })
		default:
			k.RunFor(sim.Duration(rng.Intn(int(5 * sim.Millisecond))))
		}
		check(step)
	}
	k.Run()
	check(-1)
}

var cpuSink float64

func TestCPUCycleReadsAllocateNothing(t *testing.T) {
	k, h := newSeattle(t, nil)
	for i := 0; i < 6; i++ {
		h.Spawn("job", 40+i%2).Spin()
	}
	k.RunFor(10 * sim.Millisecond)
	read := func() { cpuSink = h.TotalCPUCycles() + h.CPUCyclesFor(40) + h.CPUCyclesFor(41) }
	if a := testing.AllocsPerRun(200, read); a != 0 {
		t.Fatalf("CPU accounting reads allocate %v times, want 0", a)
	}
}
