// Package chaos is the testbed's fault injector: a deterministic,
// seed-driven schedule of host crashes, guest-OS crashes, worker kills,
// network partitions, loss/delay faults, and image-repository failures,
// applied to a running HUP at scripted virtual times. The same seed and
// schedule always produce the same fault sequence, so recovery
// experiments are exactly reproducible.
package chaos

import (
	"fmt"
	"sort"

	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/uml"
)

// Kind classifies one injected fault.
type Kind int

// Fault kinds. The *Heal/Restore kinds undo their counterpart; faults
// with a positive Duration schedule their own heal automatically.
const (
	// HostCrash crash-stops a HUP host: its daemon stops heartbeating and
	// accepting work, and every guest on it dies.
	HostCrash Kind = iota
	// HostRestore brings a crash-stopped host back empty.
	HostRestore
	// GuestCrash kills one virtual service node's guest OS (host stays up).
	GuestCrash
	// WorkerKill kills one worker process inside a guest.
	WorkerKill
	// LinkFault applies packet loss and/or extra delay on Host→Peer
	// transfers ("*" wildcards either side).
	LinkFault
	// LinkHeal clears a LinkFault.
	LinkHeal
	// Partition drops all traffic between Host and Peer, both directions.
	Partition
	// PartitionHeal reconnects a Partition.
	PartitionHeal
	// ImageFault makes repository downloads of Image fail with Mode.
	ImageFault
	// ImageHeal clears an ImageFault.
	ImageHeal
	// MasterCrash crash-stops the control plane's current leader: it
	// stops journaling, heartbeating the standby, and accepting calls.
	// With an HA cluster wired, the warm standby detects the silence and
	// takes over; without one the control plane is simply down.
	MasterCrash
	// MasterRestore resumes a crash-stopped Master. After a failover it
	// comes back as a fenced ex-leader, not as the leader.
	MasterRestore
	// MasterPartition drops all traffic between the Master's machine
	// (Host, default "master") and everyone else — daemon heartbeats,
	// standby journal streaming, and command fan-out all stop.
	MasterPartition
	// MasterPartitionHeal reconnects a MasterPartition.
	MasterPartitionHeal
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case HostCrash:
		return "host-crash"
	case HostRestore:
		return "host-restore"
	case GuestCrash:
		return "guest-crash"
	case WorkerKill:
		return "worker-kill"
	case LinkFault:
		return "link-fault"
	case LinkHeal:
		return "link-heal"
	case Partition:
		return "partition"
	case PartitionHeal:
		return "partition-heal"
	case ImageFault:
		return "image-fault"
	case ImageHeal:
		return "image-heal"
	case MasterCrash:
		return "master-crash"
	case MasterRestore:
		return "master-restore"
	case MasterPartition:
		return "master-partition"
	case MasterPartitionHeal:
		return "master-partition-heal"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled injection.
type Fault struct {
	// At is when the fault fires, relative to Arm.
	At sim.Duration
	// Kind selects what happens.
	Kind Kind
	// Host names the HUP host (crash kinds; source side of link kinds).
	Host string
	// Peer names the destination host of link/partition kinds; "*"
	// wildcards (link kinds only).
	Peer string
	// Service and Node select the guest for GuestCrash/WorkerKill.
	Service, Node string
	// Image names the repository image for ImageFault/ImageHeal.
	Image string
	// Mode is the download failure mode for ImageFault.
	Mode image.FaultKind
	// Loss and Delay parameterise a LinkFault.
	Loss  float64
	Delay sim.Duration
	// Duration, when positive, auto-heals the fault this long after it
	// fires (crash kinds restore, link kinds clear, image kinds heal).
	Duration sim.Duration
}

// String renders the fault deterministically.
func (f Fault) String() string {
	s := fmt.Sprintf("+%v %v", f.At, f.Kind)
	switch f.Kind {
	case HostCrash, HostRestore:
		s += " " + f.Host
	case GuestCrash, WorkerKill:
		s += " " + f.Service + "/" + f.Node
	case LinkFault:
		s += fmt.Sprintf(" %s->%s loss=%.2f delay=%v", f.Host, f.Peer, f.Loss, f.Delay)
	case LinkHeal:
		s += fmt.Sprintf(" %s->%s", f.Host, f.Peer)
	case Partition, PartitionHeal:
		s += fmt.Sprintf(" %s|%s", f.Host, f.Peer)
	case ImageFault:
		s += fmt.Sprintf(" %s mode=%d", f.Image, int(f.Mode))
	case ImageHeal:
		s += " " + f.Image
	case MasterPartition, MasterPartitionHeal:
		s += " " + hostOr(f.Host, "master")
	}
	if f.Duration > 0 {
		s += fmt.Sprintf(" for %v", f.Duration)
	}
	return s
}

// key identifies the fault's standing effect for the active set.
func (f Fault) key() string {
	switch f.Kind {
	case HostCrash, HostRestore:
		return "host:" + f.Host
	case LinkFault, LinkHeal:
		return "link:" + f.Host + "->" + f.Peer
	case Partition, PartitionHeal:
		return "partition:" + f.Host + "|" + f.Peer
	case ImageFault, ImageHeal:
		return "image:" + f.Image
	case MasterCrash, MasterRestore:
		return "master"
	case MasterPartition, MasterPartitionHeal:
		return "master-partition:" + hostOr(f.Host, "master")
	}
	return ""
}

// Record is one applied injection, for history and consoles.
type Record struct {
	// At is the virtual time the injection was applied.
	At sim.Time
	// Fault is the injection.
	Fault Fault
	// Note carries the outcome ("crashed 3 guests", "no such node").
	Note string
	// Healed marks auto- or scripted heals.
	Healed bool
}

// String renders one history line.
func (r Record) String() string {
	h := ""
	if r.Healed {
		h = " (heal)"
	}
	return fmt.Sprintf("%v %v%s %s", r.At, r.Fault.Kind, h, r.Note)
}

// Config wires an Injector to a testbed's parts. Kernel and Net are
// required; Master, Daemons, and Repo are optional (faults that need a
// missing part record a note and do nothing).
type Config struct {
	Kernel  *sim.Kernel
	Net     *simnet.Network
	Master  *soda.Master
	Daemons []*soda.Daemon
	Repo    *image.Repository
	// Cluster, when set, routes MasterCrash at the current HA leader.
	Cluster *soda.Cluster
	// Seed drives the injector's randomness (packet-loss draws).
	Seed uint64
}

// Injector applies a scripted fault schedule to a running testbed.
type Injector struct {
	k       *sim.Kernel
	net     *simnet.Network
	master  *soda.Master
	daemons []*soda.Daemon
	repo    *image.Repository
	cluster *soda.Cluster
	rng     *sim.RNG

	schedule    []Fault
	armed       bool
	active      map[string]Fault
	imageFaults map[string]image.FaultKind
	history     []Record
}

// New builds an injector. The network's loss draws use an RNG derived
// from Seed, independent of the testbed's main stream, so enabling chaos
// never perturbs an existing run's randomness.
func New(cfg Config) *Injector {
	if cfg.Kernel == nil || cfg.Net == nil {
		panic("chaos: injector needs a kernel and a network")
	}
	inj := &Injector{
		k:           cfg.Kernel,
		net:         cfg.Net,
		master:      cfg.Master,
		daemons:     cfg.Daemons,
		repo:        cfg.Repo,
		cluster:     cfg.Cluster,
		rng:         sim.NewRNG(cfg.Seed ^ 0xC4A05),
		active:      make(map[string]Fault),
		imageFaults: make(map[string]image.FaultKind),
	}
	cfg.Net.SetFaultRNG(sim.NewRNG(cfg.Seed ^ 0xFA017))
	if cfg.Repo != nil {
		cfg.Repo.SetFaultHook(func(name string) image.FaultKind {
			if mode, ok := inj.imageFaults[name]; ok {
				return mode
			}
			return inj.imageFaults["*"]
		})
	}
	return inj
}

// SetCluster wires the HA cluster after construction (the cluster is
// typically built after the injector on an existing testbed).
func (inj *Injector) SetCluster(c *soda.Cluster) { inj.cluster = c }

// Schedule adds a fault to the script. Panics after Arm.
func (inj *Injector) Schedule(f Fault) *Injector {
	if inj.armed {
		panic("chaos: schedule after arm")
	}
	if f.At < 0 {
		panic("chaos: negative fault time")
	}
	inj.schedule = append(inj.schedule, f)
	return inj
}

// Arm installs the schedule on the kernel: each fault fires at its At
// offset from now, in At order (stable for equal times). Faults with a
// Duration get their heal scheduled too.
func (inj *Injector) Arm() {
	if inj.armed {
		panic("chaos: already armed")
	}
	inj.armed = true
	sort.SliceStable(inj.schedule, func(i, j int) bool { return inj.schedule[i].At < inj.schedule[j].At })
	for _, f := range inj.schedule {
		f := f
		inj.k.After(f.At, func() { inj.apply(f, false) })
		if f.Duration > 0 {
			if heal, ok := healOf(f); ok {
				inj.k.After(f.At+f.Duration, func() { inj.apply(heal, true) })
			}
		}
	}
}

// healOf returns the fault that undoes f.
func healOf(f Fault) (Fault, bool) {
	h := f
	h.At = f.At + f.Duration
	h.Duration = 0
	switch f.Kind {
	case HostCrash:
		h.Kind = HostRestore
	case LinkFault:
		h.Kind = LinkHeal
	case Partition:
		h.Kind = PartitionHeal
	case ImageFault:
		h.Kind = ImageHeal
	case MasterCrash:
		h.Kind = MasterRestore
	case MasterPartition:
		h.Kind = MasterPartitionHeal
	default:
		return Fault{}, false
	}
	return h, true
}

// apply executes one fault now.
func (inj *Injector) apply(f Fault, healed bool) {
	note := ""
	switch f.Kind {
	case HostCrash:
		if d := inj.daemon(f.Host); d == nil {
			note = "no such host"
		} else if d.Crashed() {
			note = "already crashed"
		} else {
			guests := d.Nodes()
			d.Crash()
			inj.active[f.key()] = f
			note = fmt.Sprintf("crash-stopped, %d guest(s) died", guests)
		}
	case HostRestore:
		if d := inj.daemon(f.Host); d == nil {
			note = "no such host"
		} else if !d.Crashed() {
			note = "not crashed"
		} else {
			d.Restore()
			delete(inj.active, f.key())
			note = "restored empty"
		}
	case GuestCrash:
		if g := inj.guest(f.Service, f.Node); g == nil {
			note = "no such node"
		} else if !g.Alive() {
			note = "already dead"
		} else {
			g.Crash("chaos")
			note = "guest crashed"
		}
	case WorkerKill:
		if g := inj.guest(f.Service, f.Node); g == nil {
			note = "no such node"
		} else if !g.Alive() {
			note = "guest dead"
		} else {
			g.KillWorker()
			note = fmt.Sprintf("worker killed, %d left", g.Workers())
		}
	case LinkFault:
		inj.net.SetLinkFault(f.Host, f.Peer, f.Loss, f.Delay)
		inj.active[f.key()] = f
		note = fmt.Sprintf("loss=%.2f delay=%v", f.Loss, f.Delay)
	case LinkHeal:
		inj.net.ClearLinkFault(f.Host, f.Peer)
		delete(inj.active, f.key())
		note = "cleared"
	case Partition:
		inj.net.Partition(f.Host, f.Peer)
		inj.active[f.key()] = f
		note = "partitioned"
	case PartitionHeal:
		inj.net.HealPartition(f.Host, f.Peer)
		delete(inj.active, f.key())
		note = "healed"
	case ImageFault:
		if inj.repo == nil {
			note = "no repository"
		} else {
			inj.imageFaults[f.Image] = f.Mode
			inj.active[f.key()] = f
			note = fmt.Sprintf("mode=%d", int(f.Mode))
		}
	case ImageHeal:
		delete(inj.imageFaults, f.Image)
		delete(inj.active, f.key())
		note = "healed"
	case MasterCrash:
		switch {
		case inj.cluster != nil:
			inj.cluster.HaltLeader()
			inj.active[f.key()] = f
			note = fmt.Sprintf("leader halted (epoch %d)", inj.cluster.Epoch())
		case inj.master != nil:
			inj.master.Halt()
			inj.active[f.key()] = f
			note = "master halted (no standby)"
		default:
			note = "no master"
		}
	case MasterRestore:
		switch {
		case inj.cluster != nil:
			// After a takeover the crashed ex-leader is the cluster's
			// standby; resuming it does not regain leadership — its epoch
			// is fenced at the daemons.
			inj.cluster.Standby().Resume()
			delete(inj.active, f.key())
			note = "ex-leader resumed (fenced)"
		case inj.master != nil:
			inj.master.Resume()
			delete(inj.active, f.key())
			note = "master resumed"
		default:
			note = "no master"
		}
	case MasterPartition:
		inj.net.Partition(hostOr(f.Host, "master"), "*")
		inj.active[f.key()] = f
		note = "isolated"
	case MasterPartitionHeal:
		inj.net.HealPartition(hostOr(f.Host, "master"), "*")
		delete(inj.active, f.key())
		note = "healed"
	default:
		note = "unknown kind"
	}
	inj.history = append(inj.history, Record{At: inj.k.Now(), Fault: f, Note: note, Healed: healed})
}

// hostOr defaults an empty host name.
func hostOr(h, def string) string {
	if h == "" {
		return def
	}
	return h
}

// daemon finds a daemon by HUP host name.
func (inj *Injector) daemon(host string) *soda.Daemon {
	for _, d := range inj.daemons {
		if d.Host().Spec.Name == host {
			return d
		}
	}
	return nil
}

// guest finds a virtual service node's guest via the Master.
func (inj *Injector) guest(service, node string) *uml.Guest {
	if inj.master == nil {
		return nil
	}
	svc, ok := inj.master.Service(service)
	if !ok {
		return nil
	}
	info, ok := svc.NodeByName(node)
	if !ok {
		return nil
	}
	return info.Guest
}

// Schedule accessors ------------------------------------------------------

// ActiveFaults returns the standing faults (crashed hosts, open
// partitions, link and image faults), sorted by key for determinism.
func (inj *Injector) ActiveFaults() []Fault {
	keys := make([]string, 0, len(inj.active))
	for k := range inj.active {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Fault, len(keys))
	for i, k := range keys {
		out[i] = inj.active[k]
	}
	return out
}

// History returns every applied injection in order.
func (inj *Injector) History() []Record {
	return append([]Record(nil), inj.history...)
}
