package sched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// flowsWithUIDs submits one long CPU flow per uid to a server of the
// given capacity scheduled by p, returning the flows with the rates p's
// division gave them.
func flowsWithUIDs(p Scheduler, capacity float64, uids ...int) []*sim.Flow {
	k := sim.NewKernel()
	s := sim.NewFluidServer(k, "t", capacity, p)
	var out []*sim.Flow
	for i, uid := range uids {
		f := s.Submit("f", 1, 1e6, &FlowMeta{UID: uid, PID: i + 1}, nil)
		out = append(out, f)
	}
	return out
}

func TestFairShareEqualPerProcess(t *testing.T) {
	flows := flowsWithUIDs(NewFairShare(), 400, 100, 100, 100, 200)
	for _, f := range flows {
		if f.Rate() != 100 {
			t.Fatalf("rate = %v, want 100", f.Rate())
		}
	}
}

func TestProportionalEnforcesPerUIDShares(t *testing.T) {
	// uid 100 has 3 runnable processes, uid 200 has 1; equal weights mean
	// each *uid* gets half the CPU regardless of process count.
	p := NewProportional()
	p.SetShare(100, 512)
	p.SetShare(200, 512)
	flows := flowsWithUIDs(p, 600, 100, 100, 100, 200)
	var uid100, uid200 float64
	for _, f := range flows {
		switch MetaOf(f).UID {
		case 100:
			uid100 += f.Rate()
		case 200:
			uid200 += f.Rate()
		}
	}
	if math.Abs(uid100-300) > 1e-9 || math.Abs(uid200-300) > 1e-9 {
		t.Fatalf("group rates = %v, %v, want 300 each", uid100, uid200)
	}
	// Within uid 100 each of the 3 processes gets 100.
	if flows[0].Rate() != 100 {
		t.Fatalf("per-process rate = %v, want 100", flows[0].Rate())
	}
}

func TestProportionalWeightedShares(t *testing.T) {
	p := NewProportional()
	p.SetShare(1, 1024) // seattle-style node: capacity 2
	p.SetShare(2, 512)  // capacity 1
	flows := flowsWithUIDs(p, 900, 1, 2)
	if math.Abs(flows[0].Rate()-600) > 1e-9 || math.Abs(flows[1].Rate()-300) > 1e-9 {
		t.Fatalf("rates = %v, %v, want 600/300", flows[0].Rate(), flows[1].Rate())
	}
}

func TestProportionalWorkConserving(t *testing.T) {
	// Only uid 1 has runnable work: it gets the whole CPU even though its
	// configured share is small.
	p := NewProportional()
	p.SetShare(1, 10)
	p.SetShare(2, 990) // absent uid
	flows := flowsWithUIDs(p, 1000, 1, 1)
	var total float64
	for _, f := range flows {
		total += f.Rate()
	}
	if math.Abs(total-1000) > 1e-9 {
		t.Fatalf("total rate = %v, want full capacity 1000", total)
	}
}

func TestProportionalDefaultWeightForUnregisteredUIDs(t *testing.T) {
	// No SetShare calls: both uids default to weight 1.
	flows := flowsWithUIDs(NewProportional(), 100, 7, 8)
	if flows[0].Rate() != 50 || flows[1].Rate() != 50 {
		t.Fatalf("rates = %v, %v, want 50/50", flows[0].Rate(), flows[1].Rate())
	}
}

func TestProportionalClearShare(t *testing.T) {
	p := NewProportional()
	p.SetShare(1, 100)
	if _, ok := p.Share(1); !ok {
		t.Fatal("share not set")
	}
	p.ClearShare(1)
	if _, ok := p.Share(1); ok {
		t.Fatal("share not cleared")
	}
}

func TestProportionalRejectsNonPositiveShare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive share")
		}
	}()
	NewProportional().SetShare(1, 0)
}

func TestMetaOfPanicsWithoutMeta(t *testing.T) {
	k := sim.NewKernel()
	s := sim.NewFluidServer(k, "t", 1, sim.EqualShare{})
	f := s.Submit("bare", 1, 1, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for missing meta")
		}
	}()
	MetaOf(f)
}

func TestSchedulerNames(t *testing.T) {
	if NewFairShare().Name() == NewProportional().Name() {
		t.Fatal("policies share a name")
	}
}

func TestProportionalDeterministicAcrossMapOrder(t *testing.T) {
	// Many uids: repeated assignment must produce identical rates even
	// though map iteration order varies.
	for trial := 0; trial < 10; trial++ {
		p := NewProportional()
		for _, uid := range []int{1, 3, 5, 7, 9} {
			p.SetShare(uid, float64(uid*100))
		}
		flows := flowsWithUIDs(p, 2500, 5, 3, 9, 1, 7, 3, 5)
		var total float64
		for _, f := range flows {
			total += f.Rate()
		}
		if math.Abs(total-2500) > 1e-6 {
			t.Fatalf("trial %d: total = %v", trial, total)
		}
	}
}

// churnCPU returns a CPU scheduled by Proportional with n resident
// spinning flows spread over four userids of unequal shares.
func churnCPU(n int) (*sim.Kernel, *sim.FluidServer) {
	k := sim.NewKernel()
	p := NewProportional()
	for uid := 1; uid <= 4; uid++ {
		p.SetShare(uid, float64(256*uid))
	}
	cpu := sim.NewFluidServer(k, "cpu", 2.6e9, p)
	for i := 0; i < n; i++ {
		cpu.Submit("spin", 1, 1e30, &FlowMeta{UID: 1 + i%4, PID: i + 1}, nil)
	}
	return k, cpu
}

// BenchmarkFluidChurn measures one arrival plus one departure on a
// proportional-share CPU with n resident runnable flows: each op runs one
// short burst to completion.
func BenchmarkFluidChurn(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k, cpu := churnCPU(n)
			burst := &sim.Flow{Label: "burst", Weight: 1, Meta: &FlowMeta{UID: 2, PID: n + 1}}
			done := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu.Start(burst, 1e5, done)
				k.Run()
			}
		})
	}
}

func TestProportionalBurstAllocatesNothing(t *testing.T) {
	k, cpu := churnCPU(100)
	f := &sim.Flow{Label: "burst", Weight: 1, Meta: &FlowMeta{UID: 3, PID: 1000}}
	done := func() {}
	burst := func() {
		cpu.Start(f, 1e5, done)
		k.Run()
	}
	burst() // fill the event pool
	if a := testing.AllocsPerRun(200, burst); a != 0 {
		t.Fatalf("steady-state CPU burst allocates %v times, want 0", a)
	}
}
