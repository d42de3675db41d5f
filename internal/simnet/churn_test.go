package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// churnLAN returns a LAN whose "host" NIC carries n resident transfers
// split between two source addresses (the sim-crowd shape: a service
// node and the host's own address), each too large ever to drain.
func churnLAN(n int) (*sim.Kernel, *Network, [2]IP) {
	k := sim.NewKernel()
	net := New(k, 100*sim.Microsecond)
	host, client := net.MustAttach("host", 100), net.MustAttach("client", 100)
	srcs := [2]IP{"10.0.0.1", "10.0.0.2"}
	for _, ip := range srcs {
		if err := host.AddIP(ip); err != nil {
			panic(err)
		}
	}
	if err := client.AddIP("10.0.1.1"); err != nil {
		panic(err)
	}
	host.SetShaperCap(srcs[0], 60)
	for i := 0; i < n; i++ {
		if err := net.Transfer(srcs[i%2], "10.0.1.1", 1<<60, nil); err != nil {
			panic(err)
		}
	}
	return k, net, srcs
}

// BenchmarkFluidChurn measures one arrival plus one departure on a NIC
// holding n resident transfers: each op sends one packet-sized transfer
// through the shaper and runs the kernel until it is delivered.
func BenchmarkFluidChurn(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k, net, srcs := churnLAN(n)
			done := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.Transfer(srcs[i%2], "10.0.1.1", 1500, done); err != nil {
					b.Fatal(err)
				}
				k.Run()
			}
		})
	}
}

func TestTransferSteadyStateAllocatesNothing(t *testing.T) {
	k, net, srcs := churnLAN(100)
	done := func() {}
	send := func() {
		if err := net.Transfer(srcs[0], "10.0.1.1", 1500, done); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	send() // fill the op, flow and event pools
	if a := testing.AllocsPerRun(200, send); a != 0 {
		t.Fatalf("steady-state transfer allocates %v times, want 0", a)
	}
}
