// Package hostos models a HUP host: a physical server with CPU, memory,
// disk, and NIC resources, a process table, and a pluggable CPU scheduler.
// The SODA Daemon (internal/soda) reserves "slices" of a host to create
// virtual service nodes; the UML guest OS (internal/uml) runs its guest
// processes as host processes that pay the tracing-thread syscall tax.
package hostos

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/cycles"
	"repro/internal/hostos/sched"
	"repro/internal/sim"
)

// Spec describes a host's hardware, mirroring the paper's testbed
// machines (§4: seattle, a 2.6 GHz Xeon with 2 GB RAM; tacoma, a 1.8 GHz
// P4 with 768 MB RAM; both on a 100 Mbps LAN).
type Spec struct {
	// Name is the host's code name.
	Name string
	// Clock is the CPU clock rate.
	Clock cycles.Hz
	// MemoryMB is installed RAM in MiB.
	MemoryMB int
	// DiskMB is disk capacity in MiB.
	DiskMB int
	// DiskWriteMBps is sustained sequential disk write bandwidth in MiB/s.
	DiskWriteMBps float64
	// DiskReadMBps is sustained sequential disk read bandwidth in MiB/s.
	DiskReadMBps float64
	// DiskSeekMs is the average positioning time a random read pays
	// before data transfer begins (2003-era disks: 5–9 ms).
	DiskSeekMs float64
	// NICMbps is network interface bandwidth in megabits per second.
	NICMbps float64
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("hostos: spec needs a name")
	case s.Clock <= 0:
		return fmt.Errorf("hostos: %s: non-positive clock", s.Name)
	case s.MemoryMB <= 0:
		return fmt.Errorf("hostos: %s: non-positive memory", s.Name)
	case s.DiskMB <= 0:
		return fmt.Errorf("hostos: %s: non-positive disk", s.Name)
	case s.DiskWriteMBps <= 0 || s.DiskReadMBps <= 0:
		return fmt.Errorf("hostos: %s: non-positive disk bandwidth", s.Name)
	case s.NICMbps <= 0:
		return fmt.Errorf("hostos: %s: non-positive NIC bandwidth", s.Name)
	}
	return nil
}

// Seattle returns the spec of the paper's first testbed host.
func Seattle() Spec {
	return Spec{
		Name:          "seattle",
		Clock:         2600 * cycles.MHz,
		MemoryMB:      2048,
		DiskMB:        60000,
		DiskWriteMBps: 45,
		DiskReadMBps:  55,
		DiskSeekMs:    6,
		NICMbps:       100,
	}
}

// Tacoma returns the spec of the paper's second testbed host.
func Tacoma() Spec {
	return Spec{
		Name:          "tacoma",
		Clock:         1800 * cycles.MHz,
		MemoryMB:      768,
		DiskMB:        40000,
		DiskWriteMBps: 25,
		DiskReadMBps:  35,
		DiskSeekMs:    6,
		NICMbps:       100,
	}
}

// Host is a running HUP host.
type Host struct {
	Spec Spec

	k         *sim.Kernel
	scheduler sched.Scheduler
	cpu       *sim.FluidServer
	diskW     *sim.FluidServer
	diskR     *sim.FluidServer

	procs   map[int]*Process
	nextPID int

	memUsedMB   int
	diskUsedMB  int
	memReserved int
	reservs     map[int]*Reservation
	nextResID   int

	// cpuFinished accumulates cycles completed per uid by flows that have
	// drained or been killed, and cpuFinishedAll their sum over uids.
	// cpuLive holds each uid's in-flight CPU flows with their submit
	// sequence numbers; reads add the flows' Served() in submit order,
	// since float addition is not associative and map order would make
	// one state sum to different bits.
	cpuFinished    map[int]float64
	cpuFinishedAll float64
	cpuLive        map[int]map[*sim.Flow]uint64
	cpuSeq         uint64
}

// New boots a host with the given spec and CPU scheduler. A nil scheduler
// defaults to the unmodified-Linux FairShare policy.
func New(k *sim.Kernel, spec Spec, scheduler sched.Scheduler) (*Host, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if scheduler == nil {
		scheduler = sched.NewFairShare()
	}
	h := &Host{
		Spec:        spec,
		k:           k,
		scheduler:   scheduler,
		procs:       make(map[int]*Process),
		nextPID:     1,
		reservs:     make(map[int]*Reservation),
		nextResID:   1,
		cpuFinished: make(map[int]float64),
		cpuLive:     make(map[int]map[*sim.Flow]uint64),
	}
	h.cpu = sim.NewFluidServer(k, spec.Name+"/cpu", float64(spec.Clock), scheduler)
	h.diskW = sim.NewFluidServer(k, spec.Name+"/disk-write", spec.DiskWriteMBps*1024*1024, sim.EqualShare{})
	h.diskR = sim.NewFluidServer(k, spec.Name+"/disk-read", spec.DiskReadMBps*1024*1024, sim.EqualShare{})
	return h, nil
}

// MustNew is New, panicking on error; for tests and fixed testbeds.
func MustNew(k *sim.Kernel, spec Spec, scheduler sched.Scheduler) *Host {
	h, err := New(k, spec, scheduler)
	if err != nil {
		panic(err)
	}
	return h
}

// Kernel returns the simulation kernel the host runs on.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// Scheduler returns the active CPU scheduler.
func (h *Host) Scheduler() sched.Scheduler { return h.scheduler }

// SetScheduler swaps the CPU scheduling policy at the current virtual
// instant — the mechanism behind the Figure 5(a)/(b) comparison.
func (h *Host) SetScheduler(s sched.Scheduler) {
	if s == nil {
		panic("hostos: nil scheduler")
	}
	h.scheduler = s
	h.cpu.SetPolicy(s)
}

// Clock returns the host CPU clock rate.
func (h *Host) Clock() cycles.Hz { return h.Spec.Clock }

// CPU exposes the CPU fluid server (for utilisation queries in tests).
func (h *Host) CPU() *sim.FluidServer { return h.cpu }

// --- Processes -----------------------------------------------------------

// Process is an entry in the host's process table. Guest processes of a
// UML are ordinary host processes sharing one userid (§4.2: "Within one
// virtual service node, all processes bear the same user id").
type Process struct {
	PID  int
	UID  int
	Name string

	h     *Host
	meta  sched.FlowMeta // the scheduler's view of every flow the process submits
	dead  bool
	flows map[*sim.Flow]struct{}
	// cpuLive is the uid's live CPU flow set, Host.cpuLive[UID].
	cpuLive map[*sim.Flow]uint64
	onKill  []func()
}

// Spawn creates a process owned by uid.
func (h *Host) Spawn(name string, uid int) *Process {
	live := h.cpuLive[uid]
	if live == nil {
		live = make(map[*sim.Flow]uint64)
		h.cpuLive[uid] = live
	}
	p := &Process{
		PID:     h.nextPID,
		UID:     uid,
		Name:    name,
		h:       h,
		meta:    sched.FlowMeta{UID: uid, PID: h.nextPID},
		flows:   make(map[*sim.Flow]struct{}),
		cpuLive: live,
	}
	h.nextPID++
	h.procs[p.PID] = p
	return p
}

// Processes returns the live process table sorted by PID.
func (h *Host) Processes() []*Process {
	out := make([]*Process, 0, len(h.procs))
	for _, p := range h.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// ProcessesByUID returns live processes owned by uid, sorted by PID.
func (h *Host) ProcessesByUID(uid int) []*Process {
	var out []*Process
	for _, p := range h.Processes() {
		if p.UID == uid {
			out = append(out, p)
		}
	}
	return out
}

// Kill terminates a process: its in-flight CPU and disk flows are
// cancelled and it leaves the process table. Killing an already-dead
// process is a no-op (matching kill(2) semantics loosely).
func (h *Host) Kill(p *Process) {
	if p.dead {
		return
	}
	p.dead = true
	for _, f := range bySubmit(p.cpuLive) {
		if _, mine := p.flows[f]; mine {
			h.finishCPU(p.UID, f.Served())
			delete(p.cpuLive, f)
		}
	}
	for f := range p.flows {
		h.cpu.Cancel(f)
		h.diskW.Cancel(f)
		h.diskR.Cancel(f)
	}
	p.flows = nil
	delete(h.procs, p.PID)
	for _, fn := range p.onKill {
		fn()
	}
}

// KillUID terminates every process owned by uid — the blast radius of a
// guest-OS crash is exactly one userid, which is the isolation property
// the honeypot experiment demonstrates.
func (h *Host) KillUID(uid int) int {
	var victims []*Process
	for _, p := range h.procs {
		if p.UID == uid {
			victims = append(victims, p)
		}
	}
	for _, p := range victims {
		h.Kill(p)
	}
	return len(victims)
}

// Alive reports whether the process is still in the process table.
func (p *Process) Alive() bool { return !p.dead }

// OnKill registers a callback invoked when the process is killed.
func (p *Process) OnKill(fn func()) { p.onKill = append(p.onKill, fn) }

// Exec schedules a CPU burst of c cycles for the process. onDone fires
// when the burst completes. Exec on a dead process is a no-op returning
// nil (the process was killed between scheduling decisions).
func (p *Process) Exec(c cycles.Cycles, onDone func()) *sim.Flow {
	if p.dead {
		return nil
	}
	h := p.h
	var f *sim.Flow
	f = h.cpu.Submit(p.Name, 1, float64(c), &p.meta, func() {
		delete(p.flows, f)
		h.finishCPU(p.UID, float64(c))
		delete(p.cpuLive, f)
		if onDone != nil {
			onDone()
		}
	})
	p.flows[f] = struct{}{}
	h.cpuSeq++
	p.cpuLive[f] = h.cpuSeq
	return f
}

// Spin starts an effectively infinite CPU burst — the comp workload's
// "infinite loop of dummy arithmetic operations". The flow persists until
// the process is killed.
func (p *Process) Spin() *sim.Flow {
	return p.Exec(cycles.Cycles(1<<62), nil)
}

// Syscall executes one system call: a CPU burst whose cost comes from the
// cycle model — the host-OS path when guest is false, the UML
// tracing-thread path when guest is true.
func (p *Process) Syscall(s cycles.Syscall, guest bool, onDone func()) *sim.Flow {
	c := cycles.HostCost(s)
	if guest {
		c = cycles.UMLCost(s)
	}
	return p.Exec(c, onDone)
}

// WriteDisk schedules a disk write of n bytes (the log workload's
// "logging via continuous disk writes"). Disk writes also consume a small
// amount of CPU per byte for the buffer-cache copy.
func (p *Process) WriteDisk(n int64, onDone func()) *sim.Flow {
	if p.dead {
		return nil
	}
	h := p.h
	// CPU cost of the write path: ~0.5 cycles/byte copy + write syscall.
	cpuCost := cycles.Cycles(n/2) + cycles.HostCost(cycles.Write)
	var f *sim.Flow
	f = h.diskW.Submit(p.Name+"/write", 1, float64(n), &p.meta, func() {
		delete(p.flows, f)
		p.Exec(cpuCost, onDone)
	})
	p.flows[f] = struct{}{}
	return f
}

// ReadDisk schedules a random disk read of n bytes: a seek (the head
// positioning time of Spec.DiskSeekMs), then the transfer through the
// shared read channel, then a small CPU cost for the copy out of the
// buffer cache. Sequential streaming reads should use ReadDiskSequential.
func (p *Process) ReadDisk(n int64, onDone func()) *sim.Flow {
	return p.readDisk(n, true, onDone)
}

// ReadDiskSequential is ReadDisk without the positioning penalty, for
// streaming workloads (mounting a root file system image).
func (p *Process) ReadDiskSequential(n int64, onDone func()) *sim.Flow {
	return p.readDisk(n, false, onDone)
}

func (p *Process) readDisk(n int64, seek bool, onDone func()) *sim.Flow {
	if p.dead {
		return nil
	}
	h := p.h
	cpuCost := cycles.Cycles(n/2) + cycles.HostCost(cycles.Read)
	submit := func() {
		if p.dead {
			return
		}
		var f *sim.Flow
		f = h.diskR.Submit(p.Name+"/read", 1, float64(n), &p.meta, func() {
			delete(p.flows, f)
			p.Exec(cpuCost, onDone)
		})
		p.flows[f] = struct{}{}
	}
	if seek && h.Spec.DiskSeekMs > 0 {
		h.k.After(sim.Duration(h.Spec.DiskSeekMs*float64(sim.Millisecond)), submit)
		return nil
	}
	submit()
	return nil
}

// --- CPU accounting (Figure 5 instrumentation) ---------------------------

// finishCPU books cycles served by a CPU flow that drained or was killed.
func (h *Host) finishCPU(uid int, cycles float64) {
	h.cpuFinished[uid] += cycles
	h.cpuFinishedAll += cycles
}

// bySubmit returns the flows of a live set in submit order.
func bySubmit(live map[*sim.Flow]uint64) []*sim.Flow {
	if len(live) == 0 {
		return nil
	}
	flows := make([]*sim.Flow, 0, len(live))
	for f := range live {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, func(a, b *sim.Flow) int { return cmp.Compare(live[a], live[b]) })
	return flows
}

// TotalCPUCycles returns the cumulative cycles consumed by every userid
// up to the current virtual time, including partially served live flows.
func (h *Host) TotalCPUCycles() float64 {
	all := make(map[*sim.Flow]uint64)
	for _, live := range h.cpuLive {
		maps.Copy(all, live)
	}
	sum := h.cpuFinishedAll
	for _, f := range bySubmit(all) {
		sum += f.Served()
	}
	return sum
}

// CPUCyclesFor returns cumulative cycles consumed by one userid.
func (h *Host) CPUCyclesFor(uid int) float64 {
	sum := h.cpuFinished[uid]
	for _, f := range bySubmit(h.cpuLive[uid]) {
		sum += f.Served()
	}
	return sum
}
