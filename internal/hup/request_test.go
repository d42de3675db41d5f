package hup

import (
	"testing"

	"repro/internal/appsvc"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/workload"
)

// paperRequestLoop builds the paper's testbed hosting the <3, M> web
// content service, starts one closed-loop client with no think time,
// and returns a step that runs the simulation until one more request
// completes: issue → route → transfer → CPU burst → reply → complete.
func paperRequestLoop(tb testing.TB) func() {
	tb.Helper()
	t, err := New(Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := t.Agent.RegisterASP("asp", "k"); err != nil {
		tb.Fatal(err)
	}
	img := WebContentImage("webcontent", 8)
	if err := t.Publish(img); err != nil {
		tb.Fatal(err)
	}
	wd := NewWebDeployment(t, appsvc.DefaultWebParams(64))
	m := soda.DefaultM()
	m.DiskMB = 2048
	svc, err := t.CreateService("k", soda.ServiceSpec{
		Name: "webcontent", ImageName: img.Name, Repository: RepoIP,
		Requirement:  soda.Requirement{N: 3, M: m},
		GuestProfile: img.SystemServices, Behavior: wd.Behavior(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewGenerator(t.K, SwitchTarget{Switch: svc.Switch}, t.AddClient(), t.RNG.Split())
	gen.RunClosedLoop(1, 0)
	return func() {
		for n := gen.Completed; gen.Completed == n; {
			t.K.RunFor(100 * sim.Microsecond)
		}
	}
}

func TestSimulatedRequestAllocatesNothing(t *testing.T) {
	request := paperRequestLoop(t)
	request() // fill the request, op, flow and event pools of both nodes
	request()
	if a := testing.AllocsPerRun(200, request); a != 0 {
		t.Fatalf("steady-state simulated request allocates %v times, want 0", a)
	}
}

// BenchmarkSimulatedRequest measures one closed-loop request end to end
// on the paper's testbed.
func BenchmarkSimulatedRequest(b *testing.B) {
	request := paperRequestLoop(b)
	request()
	request()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}
