package hostos

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hostos/sched"
	"repro/internal/sim"
)

func newSeattle(t *testing.T, s sched.Scheduler) (*sim.Kernel, *Host) {
	t.Helper()
	k := sim.NewKernel()
	h, err := New(k, Seattle(), s)
	if err != nil {
		t.Fatal(err)
	}
	return k, h
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{},
		{Name: "x"},
		{Name: "x", Clock: cycles.GHz},
		{Name: "x", Clock: cycles.GHz, MemoryMB: 1},
		{Name: "x", Clock: cycles.GHz, MemoryMB: 1, DiskMB: 1},
		{Name: "x", Clock: cycles.GHz, MemoryMB: 1, DiskMB: 1, DiskWriteMBps: 1, DiskReadMBps: 1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, s)
		}
	}
	if err := Seattle().Validate(); err != nil {
		t.Errorf("seattle spec rejected: %v", err)
	}
	if err := Tacoma().Validate(); err != nil {
		t.Errorf("tacoma spec rejected: %v", err)
	}
}

func TestPaperTestbedSpecs(t *testing.T) {
	s, ta := Seattle(), Tacoma()
	if s.Clock != 2600*cycles.MHz || s.MemoryMB != 2048 {
		t.Fatalf("seattle = %+v, want 2.6GHz/2GB per paper §4", s)
	}
	if ta.Clock != 1800*cycles.MHz || ta.MemoryMB != 768 {
		t.Fatalf("tacoma = %+v, want 1.8GHz/768MB per paper §4", ta)
	}
	if s.NICMbps != 100 || ta.NICMbps != 100 {
		t.Fatal("testbed LAN is 100Mbps per paper §4")
	}
}

func TestExecBurstDuration(t *testing.T) {
	k, h := newSeattle(t, nil)
	p := h.Spawn("job", 1000)
	var done sim.Time
	p.Exec(2_600_000_000, func() { done = k.Now() }) // 1s at 2.6GHz
	k.Run()
	if done != sim.Time(sim.Second) {
		t.Fatalf("burst finished at %v, want 1s", done)
	}
}

func TestSyscallCostsGuestVsHost(t *testing.T) {
	k, h := newSeattle(t, nil)
	p := h.Spawn("svc", 1000)
	var hostDone, guestDone sim.Duration
	p.Syscall(cycles.Getpid, false, func() { hostDone = k.Now().Duration() })
	k.Run()
	start := k.Now()
	p.Syscall(cycles.Getpid, true, func() { guestDone = k.Now().Sub(start) })
	k.Run()
	ratio := float64(guestDone) / float64(hostDone)
	want := cycles.SlowdownFactor(cycles.Getpid)
	if math.Abs(ratio-want) > 0.2 {
		t.Fatalf("guest/host syscall ratio = %.1f, want %.1f", ratio, want)
	}
}

func TestProcessTableAndKill(t *testing.T) {
	_, h := newSeattle(t, nil)
	a := h.Spawn("a", 1)
	b := h.Spawn("b", 2)
	if len(h.Processes()) != 2 {
		t.Fatal("process table wrong")
	}
	if a.PID == b.PID {
		t.Fatal("duplicate PIDs")
	}
	killed := false
	a.OnKill(func() { killed = true })
	h.Kill(a)
	h.Kill(a) // idempotent
	if a.Alive() || !killed {
		t.Fatal("kill did not take effect")
	}
	if len(h.Processes()) != 1 || h.Processes()[0] != b {
		t.Fatal("process table after kill wrong")
	}
}

func TestKillCancelsInFlightWork(t *testing.T) {
	k, h := newSeattle(t, nil)
	p := h.Spawn("victim", 1)
	completed := false
	p.Exec(cycles.Cycles(h.Spec.Clock), func() { completed = true }) // 1s of work
	k.After(500*sim.Millisecond, func() { h.Kill(p) })
	k.Run()
	if completed {
		t.Fatal("killed process's burst completed")
	}
	// Partial service must still be accounted to the uid.
	got := h.CPUCyclesFor(1)
	want := float64(h.Spec.Clock) / 2
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("accounted cycles = %v, want ≈%v", got, want)
	}
}

func TestKillUIDTakesDownWholeServiceNode(t *testing.T) {
	_, h := newSeattle(t, nil)
	for i := 0; i < 5; i++ {
		h.Spawn("guest-proc", 1000)
	}
	other := h.Spawn("other-service", 2000)
	if n := h.KillUID(1000); n != 5 {
		t.Fatalf("killed %d, want 5", n)
	}
	if !other.Alive() {
		t.Fatal("kill leaked across userids — isolation violated")
	}
	if len(h.ProcessesByUID(1000)) != 0 {
		t.Fatal("uid 1000 still has processes")
	}
}

func TestExecOnDeadProcessIsNoop(t *testing.T) {
	k, h := newSeattle(t, nil)
	p := h.Spawn("dead", 1)
	h.Kill(p)
	if p.Exec(1000, func() { t.Error("dead process ran") }) {
		t.Fatal("Exec on dead process accepted a burst")
	}
	k.Run()
}

func TestSpinConsumesCPUIndefinitely(t *testing.T) {
	k, h := newSeattle(t, nil)
	p := h.Spawn("comp", 42)
	p.Spin()
	k.RunUntil(sim.Time(10 * sim.Second))
	got := h.CPUCyclesFor(42)
	want := 10 * float64(h.Spec.Clock)
	if math.Abs(got-want) > want*0.001 {
		t.Fatalf("spin consumed %v cycles, want ≈%v", got, want)
	}
}

func TestWriteDiskTakesBandwidthTime(t *testing.T) {
	k, h := newSeattle(t, nil)
	p := h.Spawn("log", 1)
	var done sim.Time
	n := int64(h.Spec.DiskWriteMBps * 1024 * 1024) // 1 second of writes
	p.WriteDisk(n, func() { done = k.Now() })
	k.Run()
	if done.Seconds() < 1.0 || done.Seconds() > 1.1 {
		t.Fatalf("write finished at %vs, want ≈1s + small CPU cost", done.Seconds())
	}
}

func TestSchedulerSwapMidRun(t *testing.T) {
	k, h := newSeattle(t, sched.NewFairShare())
	// uid 1: three spinners; uid 2: one spinner. Fair share gives uid 1
	// 75%; proportional with equal shares gives 50/50.
	for i := 0; i < 3; i++ {
		h.Spawn("a", 1).Spin()
	}
	h.Spawn("b", 2).Spin()
	k.RunUntil(sim.Time(10 * sim.Second))
	u1 := h.CPUCyclesFor(1)
	u2 := h.CPUCyclesFor(2)
	if r := u1 / (u1 + u2); math.Abs(r-0.75) > 0.01 {
		t.Fatalf("fair-share uid1 fraction = %.3f, want 0.75", r)
	}
	prop := sched.NewProportional()
	prop.SetShare(1, 512)
	prop.SetShare(2, 512)
	h.SetScheduler(prop)
	base1, base2 := u1, u2
	k.RunUntil(sim.Time(20 * sim.Second))
	d1 := h.CPUCyclesFor(1) - base1
	d2 := h.CPUCyclesFor(2) - base2
	if r := d1 / (d1 + d2); math.Abs(r-0.5) > 0.01 {
		t.Fatalf("proportional uid1 fraction = %.3f, want 0.5", r)
	}
}

func TestReserveAndRelease(t *testing.T) {
	_, h := newSeattle(t, nil)
	req := SliceRequest{CPUMHz: 512, MemoryMB: 256, DiskMB: 1024, BandwidthMbps: 10}
	r, err := h.Reserve(1000, req)
	if err != nil {
		t.Fatal(err)
	}
	avail := h.Available()
	if avail.CPUMHz != 2600-512 || avail.MemoryMB != 2048-256 {
		t.Fatalf("available after reserve = %+v", avail)
	}
	r.Release()
	r.Release() // idempotent
	if got := h.Available(); got.CPUMHz != 2600 || got.MemoryMB != 2048 {
		t.Fatalf("available after release = %+v", got)
	}
}

func TestReserveRejectsOverCommit(t *testing.T) {
	_, h := newSeattle(t, nil)
	big := SliceRequest{CPUMHz: 2000, MemoryMB: 1500, DiskMB: 1024, BandwidthMbps: 50}
	if _, err := h.Reserve(1, big); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Reserve(2, big); err == nil {
		t.Fatal("overcommit accepted")
	}
	if !h.CanReserve(SliceRequest{CPUMHz: 600, MemoryMB: 500, DiskMB: 1024, BandwidthMbps: 50}) {
		t.Fatal("remaining capacity refused")
	}
}

func TestReserveValidatesRequest(t *testing.T) {
	_, h := newSeattle(t, nil)
	if _, err := h.Reserve(1, SliceRequest{}); err == nil {
		t.Fatal("zero request accepted")
	}
}

func TestReservationRegistersSchedulerShare(t *testing.T) {
	prop := sched.NewProportional()
	_, h := newSeattle(t, prop)
	r, err := h.Reserve(1000, SliceRequest{CPUMHz: 512, MemoryMB: 64, DiskMB: 64, BandwidthMbps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := prop.Share(1000); !ok || w != 512 {
		t.Fatalf("share = %v,%v, want 512,true", w, ok)
	}
	r.Release()
	if _, ok := prop.Share(1000); ok {
		t.Fatal("share survived release")
	}
}

func TestReservationResize(t *testing.T) {
	_, h := newSeattle(t, nil)
	r, err := h.Reserve(1, SliceRequest{CPUMHz: 512, MemoryMB: 256, DiskMB: 1024, BandwidthMbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Resize(SliceRequest{CPUMHz: 1024, MemoryMB: 512, DiskMB: 2048, BandwidthMbps: 20}); err != nil {
		t.Fatal(err)
	}
	if got := h.Available().CPUMHz; got != 2600-1024 {
		t.Fatalf("available CPU after resize = %d", got)
	}
	// Resize beyond the machine fails and leaves the reservation intact.
	if err := r.Resize(SliceRequest{CPUMHz: 10000, MemoryMB: 1, DiskMB: 1, BandwidthMbps: 1}); err == nil {
		t.Fatal("impossible resize accepted")
	}
	if r.Req.CPUMHz != 1024 {
		t.Fatal("failed resize mutated reservation")
	}
}

func TestTransientMemoryAccounting(t *testing.T) {
	_, h := newSeattle(t, nil)
	if err := h.UseMemory(2048); err != nil {
		t.Fatal(err)
	}
	if err := h.UseMemory(1); err == nil {
		t.Fatal("overcommitted transient memory")
	}
	h.FreeMemory(2048)
	if h.MemoryFreeMB() != 2048 {
		t.Fatalf("free = %d", h.MemoryFreeMB())
	}
}

func TestDiskSpaceAccounting(t *testing.T) {
	_, h := newSeattle(t, nil)
	if err := h.UseDisk(h.Spec.DiskMB); err != nil {
		t.Fatal(err)
	}
	if err := h.UseDisk(1); err == nil {
		t.Fatal("disk overcommit accepted")
	}
	h.FreeDisk(h.Spec.DiskMB)
}

func TestCPUMonitorProducesSharesSummingToOne(t *testing.T) {
	k, h := newSeattle(t, sched.NewFairShare())
	h.Spawn("a", 1).Spin()
	h.Spawn("b", 2).Spin()
	mon := NewCPUMonitor(h, sim.Second, []int{1, 2}, map[int]string{1: "a", 2: "b"})
	k.RunUntil(sim.Time(10 * sim.Second))
	mon.Stop()
	sa, sb := mon.Series(1), mon.Series(2)
	if sa.Len() != 10 || sb.Len() != 10 {
		t.Fatalf("samples = %d, %d, want 10 each", sa.Len(), sb.Len())
	}
	for i, pa := range sa.Points() {
		pb := sb.Points()[i]
		if math.Abs(pa.V+pb.V-1.0) > 0.01 {
			t.Fatalf("sample %d: shares %.3f + %.3f ≠ 1", i, pa.V, pb.V)
		}
	}
}

func TestCPUMonitorSeriesSetOrderAndNames(t *testing.T) {
	k, h := newSeattle(t, nil)
	h.Spawn("x", 3).Spin()
	mon := NewCPUMonitor(h, sim.Second, []int{3, 9}, map[int]string{3: "web"})
	k.RunUntil(sim.Time(2 * sim.Second))
	mon.Stop()
	ss := mon.SeriesSet()
	if len(ss.Series) != 2 || ss.Series[0].Name != "web" || !strings.HasPrefix(ss.Series[1].Name, "uid-") {
		t.Fatalf("series set = %v", []string{ss.Series[0].Name, ss.Series[1].Name})
	}
}

func TestMHzOfConversion(t *testing.T) {
	k, h := newSeattle(t, nil)
	mon := NewCPUMonitor(h, sim.Second, nil, nil)
	_ = k
	if got := mon.MHzOf(0.5); math.Abs(got-1300) > 1e-9 {
		t.Fatalf("MHzOf(0.5) = %v, want 1300 on seattle", got)
	}
}

// TestCPUCyclesDeterministic reads one uid's ledger repeatedly in a single
// state with six CPU flows in flight. Float addition is not associative,
// so summing the live flows in map order could return different bits on
// each read.
func TestCPUCyclesDeterministic(t *testing.T) {
	k, h := newSeattle(t, nil)
	for i := 0; i < 6; i++ {
		k.After(sim.Duration(i)*7900*sim.Microsecond, func() { h.Spawn("job", 42).Spin() })
	}
	k.RunFor(123457 * sim.Microsecond)
	want := h.CPUCyclesFor(42)
	for i := 0; i < 2000; i++ {
		if got := h.CPUCyclesFor(42); got != want {
			t.Fatalf("read %d: CPUCyclesFor = %x, first read %x", i, math.Float64bits(got), math.Float64bits(want))
		}
		if got := h.TotalCPUCycles(); got != want {
			t.Fatalf("read %d: TotalCPUCycles = %x, CPUCyclesFor %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestKillAtCompletionBooksOnce kills a process at the instant its burst
// drains, after the fluid wakeup has run but before the burst's deferred
// completion callback: the burst is booked exactly once and its onDone
// does not fire, as for a burst killed mid-flight.
func TestKillAtCompletionBooksOnce(t *testing.T) {
	const work = 1e9
	k, h := newSeattle(t, nil)
	var drained sim.Time
	h.Spawn("probe", 1).Exec(work, func() { drained = k.Now() })
	k.Run()

	k, h = newSeattle(t, nil)
	p := h.Spawn("victim", 1)
	fired := 0
	p.Exec(work, func() { fired++ })
	// The last fluid wakeup may be re-armed as late as drained-1ns, so
	// the kill is scheduled from an event that runs after it there.
	k.At(drained-1, func() {
		k.Immediately(func() { k.At(drained, func() { h.Kill(p) }) })
	})
	k.Run()
	if fired != 0 {
		t.Fatalf("killed process's onDone fired %d times", fired)
	}
	if got := h.CPUCyclesFor(1); got != work {
		t.Fatalf("CPUCyclesFor = %v, want %v", got, work)
	}
	if got := h.TotalCPUCycles(); got != work {
		t.Fatalf("TotalCPUCycles = %v, want %v", got, work)
	}
}
