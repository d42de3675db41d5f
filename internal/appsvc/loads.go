package appsvc

import (
	"repro/internal/cycles"
	"repro/internal/simnet"
	"repro/internal/uml"
)

// HoneypotService is the paper's deliberately "dangerous" service (§5):
// a vulnerable victim server (ghttpd 1.4, which has a remotely
// exploitable buffer overflow) run inside its own virtual service node so
// attacks can be studied without endangering co-hosted services.
type HoneypotService struct {
	// Guest is the victim's virtual service node.
	Guest *uml.Guest

	net *simnet.Network
	// Attacks counts malicious requests received; Crashes counts the
	// times the victim was taken down.
	Attacks, Crashes int
}

// NewHoneypot wraps a guest running the victim server.
func NewHoneypot(net *simnet.Network, g *uml.Guest) *HoneypotService {
	return &HoneypotService{Guest: g, net: net}
}

// HandleAttack processes one malicious request: the overflow executes
// some victim CPU, then crashes the guest OS — and only the guest OS.
// onCrashed fires once the node is down. Returns false if the victim is
// already dead (the attacker finds the port closed).
func (h *HoneypotService) HandleAttack(onCrashed func()) bool {
	if !h.Guest.Alive() {
		return false
	}
	h.Attacks++
	// The exploit's shellcode runs briefly before binding its shell.
	ok := h.Guest.ExecCPU(cycles.Cycles(5e6), func() {
		if h.Guest.Alive() {
			h.Crashes++
			h.Guest.Crash("ghttpd-1.4 buffer overflow: remote shell bound")
		}
		if onCrashed != nil {
			onCrashed()
		}
	})
	return ok
}

// CompJob is the resource-isolation experiment's computation-intensive
// load: "infinite loop of dummy arithmetic operations" (§5). It runs one
// or more spinner processes inside a guest's userid.
type CompJob struct {
	// Spinners is the number of spinning processes started.
	Spinners int
}

// StartComp starts n spinner processes inside the guest's service node.
func StartComp(g *uml.Guest, n int) *CompJob {
	for i := 0; i < n; i++ {
		p := g.Host().Spawn("comp-loop", g.UID)
		p.Spin()
	}
	return &CompJob{Spinners: n}
}

// LogJob is the experiment's logging load: "logging via continuous disk
// writes" (§5). Each record is formatted (CPU) then written (disk), and
// each completed write immediately issues the next, keeping the node
// backlogged beyond its CPU share.
type LogJob struct {
	// Writes counts completed disk writes.
	Writes int

	stopped bool
}

// StartLog starts a continuous write loop of writeBytes-sized records,
// each preceded by formatCycles of CPU (serialisation, checksumming).
// Writes are buffered — the process does not block on the disk, matching
// Linux's write-behind page cache — so the logger's CPU demand is
// continuous and exceeds its share, as the Figure 5 experiment requires
// ("their loads are higher than their respective shares").
func StartLog(g *uml.Guest, writeBytes int64, formatCycles cycles.Cycles) *LogJob {
	j := &LogJob{}
	p := g.Host().Spawn("logd", g.UID)
	var loop func()
	loop = func() {
		if j.stopped || !p.Alive() {
			return
		}
		p.Exec(formatCycles, func() {
			p.WriteDisk(writeBytes, func() { j.Writes++ })
			loop()
		})
	}
	loop()
	return j
}

// Stop ends the write loop.
func (j *LogJob) Stop() { j.stopped = true }
