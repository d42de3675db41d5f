package uml

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/hostos"
	"repro/internal/image"
	"repro/internal/simnet"
)

// GuestState is a virtual service node's lifecycle state.
type GuestState int

// Guest lifecycle states.
const (
	// Running means the guest OS and application service are up.
	Running GuestState = iota
	// Crashed means the guest died from a fault or attack; the host OS
	// and co-located guests are unaffected (the paper's isolation claim).
	Crashed
	// Stopped means the guest was torn down deliberately.
	Stopped
)

// String names the state.
func (s GuestState) String() string {
	switch s {
	case Running:
		return "running"
	case Crashed:
		return "crashed"
	case Stopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Guest is a booted User-Mode Linux instance: the guest OS plus the
// application service of one virtual service node. All its processes are
// host processes sharing the node's userid; all its syscalls pay the
// tracing-thread interception tax.
type Guest struct {
	// NodeName labels the node ("web-1").
	NodeName string
	// UID is the host userid of every guest process.
	UID int
	// IP is the node's bridged address.
	IP simnet.IP
	// Image is the service image the node runs, as published.
	Image *image.Image

	host    *hostos.Host
	ramMB   int // RAM-disk MiB to release at teardown, 0 if disk-mounted
	state   GuestState
	kernel  []*hostos.Process
	workers []*hostos.Process
	nextRR  int
	onCrash []func(reason string)
}

// The guest kernel threads every UML shows in ps — the listing of the
// paper's Figure 3.
var guestKernelThreads = []string{"init", "[keventd]", "[kswapd]", "[bdflush]", "[kupdated]"}

func newGuest(req BootRequest, ramDisk bool, sizeMB int) *Guest {
	g := &Guest{
		NodeName: req.NodeName,
		UID:      req.UID,
		IP:       req.IP,
		Image:    req.Image,
		host:     req.Host,
	}
	if ramDisk {
		g.ramMB = sizeMB
	}
	for _, name := range guestKernelThreads {
		g.kernel = append(g.kernel, req.Host.Spawn(name, req.UID))
	}
	for i := 0; i < req.Image.WorkerProcesses; i++ {
		g.workers = append(g.workers, req.Host.Spawn(req.Image.ServiceCommand, req.UID))
	}
	return g
}

// Host returns the HUP host the guest runs on.
func (g *Guest) Host() *hostos.Host { return g.host }

// State returns the guest's lifecycle state.
func (g *Guest) State() GuestState { return g.state }

// Alive reports whether the guest is running.
func (g *Guest) Alive() bool { return g.state == Running }

// Workers returns the number of live application worker processes.
func (g *Guest) Workers() int {
	n := 0
	for _, w := range g.workers {
		if w.Alive() {
			n++
		}
	}
	return n
}

// OnCrash registers a callback fired if the guest crashes.
func (g *Guest) OnCrash(fn func(reason string)) {
	g.onCrash = append(g.onCrash, fn)
}

// nextWorker picks a live worker round-robin, or nil if none remain.
func (g *Guest) nextWorker() *hostos.Process {
	for i := 0; i < len(g.workers); i++ {
		w := g.workers[g.nextRR%len(g.workers)]
		g.nextRR++
		if w.Alive() {
			return w
		}
	}
	return nil
}

// ExecCPU runs a CPU burst on one of the guest's workers. It reports
// whether the work was accepted (false once the guest is down).
func (g *Guest) ExecCPU(c cycles.Cycles, onDone func()) bool {
	if g.state != Running {
		return false
	}
	w := g.nextWorker()
	if w == nil {
		return false
	}
	w.Exec(c, onDone)
	return true
}

// Syscall executes one system call at guest (UML-intercepted) pricing.
func (g *Guest) Syscall(s cycles.Syscall, onDone func()) bool {
	if g.state != Running {
		return false
	}
	w := g.nextWorker()
	if w == nil {
		return false
	}
	w.Syscall(s, true, onDone)
	return true
}

// ReadDisk performs guest file I/O: the bytes move through the host disk
// and the guest pays the interception tax on the read syscalls.
func (g *Guest) ReadDisk(n int64, onDone func()) bool {
	if g.state != Running {
		return false
	}
	w := g.nextWorker()
	if w == nil {
		return false
	}
	w.ReadDisk(n, onDone)
	return true
}

// PS renders the guest's process table in the style of the paper's
// Figure 3 screenshot ("ps -ef" inside each UML): every process shows the
// guest root, because the guest's root is not the host's root (§2.1).
func (g *Guest) PS() []string {
	out := []string{"  PID Uid     Stat Command"}
	for _, p := range append(append([]*hostos.Process(nil), g.kernel...), g.workers...) {
		if p.Alive() {
			out = append(out, fmt.Sprintf("%5d root    S    %s", p.PID, p.Name))
		}
	}
	return out
}

// Crash kills the guest: a fault or successful attack (the ghttpd buffer
// overflow of §2.1) takes down this guest OS and everything in it — and
// nothing else. Idempotent.
func (g *Guest) Crash(reason string) {
	if g.state != Running {
		return
	}
	g.teardown(Crashed)
	for _, fn := range g.onCrash {
		fn(reason)
	}
}

// Stop tears the guest down deliberately (service tear-down or resizing).
func (g *Guest) Stop() {
	if g.state != Running {
		return
	}
	g.teardown(Stopped)
}

func (g *Guest) teardown(final GuestState) {
	g.state = final
	g.host.KillUID(g.UID)
	if g.ramMB > 0 {
		g.host.FreeMemory(g.ramMB)
		g.ramMB = 0
	}
}

// KillWorker kills a single application worker without taking down the
// guest OS — a partial fault the service switch must route around.
func (g *Guest) KillWorker() bool {
	if g.state != Running {
		return false
	}
	w := g.nextWorker()
	if w == nil {
		return false
	}
	g.host.Kill(w)
	return true
}
