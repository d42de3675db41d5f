package soda

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/accounting"
	"repro/internal/hostos"
	"repro/internal/hostos/sched"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// newRaceAgent builds a minimal bridged Agent/Master pair without the
// full testbed: the race test only exercises the billing paths, which
// must be safe against concurrent readers (HTTP handlers) while the
// simulation mutates accounts.
func newRaceAgent(t *testing.T) *Agent {
	t.Helper()
	k := sim.NewKernel()
	net := simnet.New(k, 100*sim.Microsecond)
	h, err := hostos.New(k, hostos.Seattle(), sched.NewFairShare())
	if err != nil {
		t.Fatal(err)
	}
	nic, err := net.Attach(h.Spec.Name, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.AddIP("10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	if err := nic.AddIP("10.0.0.3"); err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(DaemonConfig{
		Host: h, NIC: nic, Net: net, HostIP: "10.0.0.2",
		Pool: simnet.MustNewIPPool("10.0.1", 1, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(net, "10.0.0.2", []*Daemon{d})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(net, "10.0.0.3", m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAgentBillingConcurrency hammers the Agent's billing paths from 8
// goroutines: spans opening and closing, bills being read, ASPs
// enrolling, credentials failing. Run with -race; the old lock-free
// Agent corrupted the open-span map and double-counted settles under
// exactly this interleaving.
func TestAgentBillingConcurrency(t *testing.T) {
	a := newRaceAgent(t)
	if err := a.RegisterASP("acme", "sesame"); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			svc := fmt.Sprintf("svc-%d", g)
			for i := 0; i < iters; i++ {
				switch g % 4 {
				case 0: // open/close usage spans
					a.openUsage("acme", svc, 4)
					a.closeUsage("acme", svc, accounting.Usage{CPUMHzSeconds: 1, NetBytes: 10})
				case 1: // read bills while spans churn
					if acct, ok := a.Billing("acme"); ok {
						_ = acct.OpenServices()
						_ = acct.InstanceSeconds
					}
					_ = a.Accounts()
				case 2: // authentication races the billing map
					if _, err := a.authenticate("sesame"); err != nil {
						t.Error(err)
					}
					_, _ = a.authenticate("wrong")
				case 3: // enrollment extends the maps mid-flight
					_ = a.RegisterASP(fmt.Sprintf("asp-%d-%d", g, i), fmt.Sprintf("cred-%d-%d", g, i))
					_ = a.ownsService("acme", svc)
				}
			}
		}()
	}
	wg.Wait()

	acct, ok := a.Billing("acme")
	if !ok {
		t.Fatal("account disappeared")
	}
	// Every span opened was closed: nothing left running, and each close
	// folded exactly one metered total into the bill.
	if n := len(acct.OpenServices()); n != 0 {
		t.Fatalf("open services after all spans closed: %d", n)
	}
	wantCPU := float64(2 * iters) // goroutines 0 and 4 ran the open/close arm
	if acct.CPUMHzSeconds != wantCPU {
		t.Fatalf("CPU charges = %v MHz-s, want %v", acct.CPUMHzSeconds, wantCPU)
	}
}

// TestSettleDeterministic opens six usage spans of different capacities
// 7.9 ms apart and settles the bill at t = 123.456789 s, 2000 times over
// fresh agents: the instance-seconds sum must read the same bits every
// time, whatever order the services were stored in.
func TestSettleDeterministic(t *testing.T) {
	settle := func() float64 {
		a := newRaceAgent(t)
		if err := a.RegisterASP("acme", "sesame"); err != nil {
			t.Fatal(err)
		}
		for i, capacity := range []int{4, 1, 7, 2, 9, 3} {
			a.k.RunUntil(sim.Time(sim.Duration(i) * 7900 * sim.Microsecond))
			a.openUsage("acme", fmt.Sprintf("svc-%d", i), capacity)
		}
		a.k.RunUntil(sim.Time(123456789 * sim.Microsecond))
		acct, _ := a.Billing("acme")
		return acct.InstanceSeconds
	}
	want := settle()
	for i := 0; i < 2000; i++ {
		if got := settle(); got != want {
			t.Fatalf("settle %d: InstanceSeconds = %x, first settle %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
