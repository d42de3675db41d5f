// Package hostos models a HUP host: a physical server with CPU, memory,
// disk, and NIC resources, a process table, and a pluggable CPU scheduler.
// The SODA Daemon (internal/soda) reserves "slices" of a host to create
// virtual service nodes; the UML guest OS (internal/uml) runs its guest
// processes as host processes that pay the tracing-thread syscall tax.
package hostos

import (
	"errors"
	"fmt"
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

	// ledgers holds each uid's CPU account, and cpuFinishedAll the sum
	// over uids of the cycles booked by bursts that drained or were
	// killed. live threads every in-flight burst in submit order; reads
	// add the bursts' Served() in that order, since float addition is
	// not associative. execFree recycles burst operations.
	ledgers        map[int]*cpuLedger
	cpuFinishedAll float64
	live           burstList
	execFree       sim.FreeList[execOp]
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
		Spec:      spec,
		k:         k,
		scheduler: scheduler,
		procs:     make(map[int]*Process),
		nextPID:   1,
		reservs:   make(map[int]*Reservation),
		nextResID: 1,
		ledgers:   make(map[int]*cpuLedger),
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

	h    *Host
	meta sched.FlowMeta // the scheduler's view of every flow the process submits
	dead bool
	disk map[*sim.Flow]struct{} // in-flight disk flows
	// ledger is the uid's CPU account, Host.ledgers[UID].
	ledger *cpuLedger
	onKill []func()
}

// Spawn creates a process owned by uid.
func (h *Host) Spawn(name string, uid int) *Process {
	l := h.ledgers[uid]
	if l == nil {
		l = &cpuLedger{}
		h.ledgers[uid] = l
	}
	p := &Process{
		PID:    h.nextPID,
		UID:    uid,
		Name:   name,
		h:      h,
		meta:   sched.FlowMeta{UID: uid, PID: h.nextPID},
		disk:   make(map[*sim.Flow]struct{}),
		ledger: l,
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
	// Book every burst's service before cancelling any: a cancel re-runs
	// the CPU's completion check, which may drain another burst.
	for op := p.ledger.live.head; op != nil; op = op.next[onUID] {
		if op.p == p {
			h.finishCPU(p.ledger, op.flow.Served())
		}
	}
	for op := p.ledger.live.head; op != nil; {
		next := op.next[onUID]
		if op.p == p {
			op.unlink()
			op.p = nil
			if h.cpu.Cancel(&op.flow) {
				h.putExec(op)
			} // else it drained and its pending completion releases it
		}
		op = next
	}
	for f := range p.disk {
		h.diskW.Cancel(f)
		h.diskR.Cancel(f)
	}
	p.disk = nil
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
// when the burst completes, unless the process is killed first. Exec on
// a dead process is a no-op returning false (the process was killed
// between scheduling decisions).
func (p *Process) Exec(c cycles.Cycles, onDone func()) bool {
	if p.dead {
		return false
	}
	h := p.h
	op := h.getExec()
	op.p, op.cycles, op.onDone = p, float64(c), onDone
	op.flow.Label, op.flow.Meta = p.Name, &p.meta
	h.live.push(op, onHost)
	p.ledger.live.push(op, onUID)
	h.cpu.Start(&op.flow, op.cycles, op.complete)
	return true
}

// Spin starts an effectively infinite CPU burst — the comp workload's
// "infinite loop of dummy arithmetic operations". The flow persists until
// the process is killed.
func (p *Process) Spin() bool {
	return p.Exec(cycles.Cycles(1<<62), nil)
}

// Syscall executes one system call: a CPU burst whose cost comes from the
// cycle model — the host-OS path when guest is false, the UML
// tracing-thread path when guest is true.
func (p *Process) Syscall(s cycles.Syscall, guest bool, onDone func()) bool {
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
		delete(p.disk, f)
		p.Exec(cpuCost, onDone)
	})
	p.disk[f] = struct{}{}
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
			delete(p.disk, f)
			p.Exec(cpuCost, onDone)
		})
		p.disk[f] = struct{}{}
	}
	if seek && h.Spec.DiskSeekMs > 0 {
		h.k.After(sim.Duration(h.Spec.DiskSeekMs*float64(sim.Millisecond)), submit)
		return nil
	}
	submit()
	return nil
}

// --- CPU bursts and accounting (Figure 5 instrumentation) ----------------

// execOp is one CPU burst of Process.Exec. Ops are pooled on the host;
// each embeds its flow and binds its completion once, so a steady-state
// burst allocates nothing. A live op sits on two intrusive lists in
// submit order: the host's (next[onHost]) and its uid's (next[onUID]).
type execOp struct {
	flow       sim.Flow
	h          *Host
	p          *Process // nil once killed
	cycles     float64
	onDone     func()
	complete   func() // op.finish, bound once
	next, prev [2]*execOp
}

// The link pairs of execOp.
const (
	onHost = iota
	onUID
)

// burstList is a doubly linked list of live bursts in submit order,
// threaded through one link pair of its ops.
type burstList struct{ head, tail *execOp }

func (l *burstList) push(op *execOp, i int) {
	op.prev[i], op.next[i] = l.tail, nil
	if l.tail != nil {
		l.tail.next[i] = op
	} else {
		l.head = op
	}
	l.tail = op
}

func (l *burstList) remove(op *execOp, i int) {
	if op.prev[i] != nil {
		op.prev[i].next[i] = op.next[i]
	} else {
		l.head = op.next[i]
	}
	if op.next[i] != nil {
		op.next[i].prev[i] = op.prev[i]
	} else {
		l.tail = op.prev[i]
	}
	op.prev[i], op.next[i] = nil, nil
}

// cpuLedger is one uid's CPU account: the cycles booked by its bursts
// that drained or were killed, and its live bursts.
type cpuLedger struct {
	finished float64
	live     burstList
}

func (h *Host) getExec() *execOp {
	if op := h.execFree.Get(); op != nil {
		return op
	}
	op := &execOp{h: h}
	op.flow.Weight = 1
	op.complete = op.finish
	return op
}

// putExec returns an op whose completion can no longer fire to the
// pool, dropping its references to the process and the caller.
func (h *Host) putExec(op *execOp) {
	op.p, op.onDone, op.flow.Label, op.flow.Meta = nil, nil, "", nil
	h.execFree.Put(op)
}

// finish runs when the burst drains: it books the burst's cycles and
// fires onDone, or, if the process was killed after the burst drained,
// only releases the op, since Kill booked it.
func (op *execOp) finish() {
	h, p := op.h, op.p
	if p == nil {
		h.putExec(op)
		return
	}
	op.unlink()
	h.finishCPU(p.ledger, op.cycles)
	fn := op.onDone
	h.putExec(op)
	if fn != nil {
		fn()
	}
}

// unlink takes a live burst off the host's and its uid's lists.
func (op *execOp) unlink() {
	op.h.live.remove(op, onHost)
	op.p.ledger.live.remove(op, onUID)
}

// finishCPU books cycles served by a burst that drained or was killed.
func (h *Host) finishCPU(l *cpuLedger, cycles float64) {
	l.finished += cycles
	h.cpuFinishedAll += cycles
}

// TotalCPUCycles returns the cumulative cycles consumed by every userid
// up to the current virtual time, including partially served live flows.
func (h *Host) TotalCPUCycles() float64 {
	sum := h.cpuFinishedAll
	for op := h.live.head; op != nil; op = op.next[onHost] {
		sum += op.flow.Served()
	}
	return sum
}

// CPUCyclesFor returns cumulative cycles consumed by one userid.
func (h *Host) CPUCyclesFor(uid int) float64 {
	l := h.ledgers[uid]
	if l == nil {
		return 0
	}
	sum := l.finished
	for op := l.live.head; op != nil; op = op.next[onUID] {
		sum += op.flow.Served()
	}
	return sum
}
