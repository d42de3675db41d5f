package soda

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/accounting"
	"repro/internal/autoscale"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
)

// The Master's journaled state. masterState is the logical form of
// everything the Master knows that cannot be re-derived from the daemons
// alone: hosted services and their node bindings, admission counters,
// settled usage, autoscaler runtime state, and the chunk tracker's holder
// occupancy. It changes only through Master.commit, which applies a typed
// record and appends it to the write-ahead journal (internal/journal);
// replaying the journal folds the same records through the same apply,
// so the live and the replayed state cannot disagree. Function-valued
// spec fields (Behavior, SwitchPolicy) are deliberately absent — they
// are code, not state, and the HA layer re-supplies them from its spec
// cache after a failover.
//
// Journal record types; apply is the one place each record's effect is
// defined:
//
//	service-admitted   jService    insert priming service, Admitted++
//	                               (one per partitioned component)
//	service-rejected   jName       Rejected++, drop service if present
//	service-removed    jName       drop service (rollback)
//	node-primed        jNodePrimed insert node, advance next node ID; a
//	                               service without a home homes here
//	node-failed        jNodeRef    remove node (host/guest death); a lost
//	                               home passes to the lowest-named survivor
//	node-removed       jNodeRef    remove node (shrink)
//	node-resized       jNodeRef    set node capacity
//	service-active     jName       mark service Active
//	service-torndown   jName       drop service
//	switch-homed       jNodeRef    service switch adopted a home node (a
//	                               component: its own first node)
//	usage-settled      jSettled    record final metered usage
//	usage-claimed      jName       settled usage consumed by the Agent
//	chunk-announce     jChunk      holder gained one chunk
//	chunk-full         jChunk      holder assembled the whole image
//	chunk-forget       jChunkRef   holder dropped its store
//	chunk-reset        (none)      tracker rebuilt from scratch (failover)
//	epoch              jEpoch      leadership epoch advanced; services
//	                               caught mid-priming and the tracker's
//	                               holders are dropped (takeover)
//	autoscale-decision jAutoscale  controller committed to a resize (pending)
//	autoscale-blocked  jAutoscale  controller wanted a move a guard refused
//	autoscale-done     jAutoscale  pending resize completed or failed
//	snapshot           masterState full state (journal.SnapshotType)

// jName is the minimal service-scoped payload.
type jName struct {
	Service string `json:"service"`
}

// jService is the journaled, logical form of a service spec.
type jService struct {
	Name         string           `json:"name"`
	Image        string           `json:"image"`
	Repository   string           `json:"repository"`
	N            int              `json:"n"`
	M            MachineConfig    `json:"m"`
	GuestProfile []string         `json:"guest_profile,omitempty"`
	Port         int              `json:"port,omitempty"`
	SLO          svcswitch.SLO    `json:"slo,omitempty"`
	Autoscale    autoscale.Policy `json:"autoscale"`
}

// jNode is the journaled form of one virtual service node binding.
type jNode struct {
	Service  string `json:"service,omitempty"` // set in payloads, cleared in masterState
	Name     string `json:"name"`
	Host     string `json:"host"`
	IP       string `json:"ip"`
	Port     int    `json:"port"`
	Capacity int    `json:"capacity"`
	UID      int    `json:"uid"`
	Daemon   int    `json:"daemon"`
}

// jNodeOf builds the journaled form of one live node binding.
func jNodeOf(service string, n NodeInfo, daemon int) jNode {
	return jNode{
		Service:  service,
		Name:     n.NodeName,
		Host:     n.HostName,
		IP:       string(n.IP),
		Port:     n.Port,
		Capacity: n.Capacity,
		UID:      n.UID,
		Daemon:   daemon,
	}
}

// jNodePrimed is the node-primed payload: the binding plus the service's
// node-ID high-water mark, so replay resumes naming where the Master did.
type jNodePrimed struct {
	jNode
	NextID int `json:"next_id"`
}

// jNodeRef addresses an existing node (removal, resize).
type jNodeRef struct {
	Service  string `json:"service"`
	Name     string `json:"name"`
	Capacity int    `json:"capacity,omitempty"`
}

// jSettled is a torn-down service's final metered usage.
type jSettled struct {
	Service string           `json:"service"`
	Usage   accounting.Usage `json:"usage"`
}

// jChunk is one chunk-tracker mutation.
type jChunk struct {
	Image  string `json:"image"`
	Chunk  uint64 `json:"chunk,omitempty"`
	Daemon int    `json:"daemon"`
	Total  int    `json:"total"`
}

// jChunkRef addresses a holder (forget).
type jChunkRef struct {
	Daemon int `json:"daemon"`
}

// jEpoch is a leadership change.
type jEpoch struct {
	Epoch uint64 `json:"epoch"`
}

// jAutoscale is one autoscaler mutation: a decision committing to a
// resize, a guard-refused move, or a completion. The target is absolute
// (total instances), which is what makes post-failover re-issue
// idempotent.
type jAutoscale struct {
	Service string `json:"service"`
	Dir     string `json:"dir"`
	From    int    `json:"from,omitempty"`
	To      int    `json:"to,omitempty"`
	Reason  string `json:"reason,omitempty"`
	AtNs    int64  `json:"at_ns"`
	OK      bool   `json:"ok,omitempty"` // autoscale-done only
}

// jAutoscalerState is one service's autoscaler runtime state: cooldown
// clocks, move counters, and the pending resize (if any). The policy
// itself rides inside the service's jService, so arming replays from
// service-admitted with no extra record.
type jAutoscalerState struct {
	Service string `json:"service"`
	autoscale.State
}

// jServiceState is one service's full journaled state.
type jServiceState struct {
	jService
	State      int     `json:"state"`
	NextNodeID int     `json:"next_node_id"`
	Home       string  `json:"home,omitempty"` // switch's home node
	Nodes      []jNode `json:"nodes,omitempty"`
}

// jHolder is the chunk tracker's occupancy for one (image, daemon) pair.
type jHolder struct {
	Image  string `json:"image"`
	Daemon int    `json:"daemon"`
	Chunks int    `json:"chunks"`
	Full   bool   `json:"full,omitempty"`
	Total  int    `json:"total"`
}

// masterState is the Master's complete logical state: what commit
// changes, what a replay of the journal reconstructs, and what
// StateDigest hashes. Every slice is kept sorted by its key (services,
// nodes, settled bills and autoscalers by name; holders by image, then
// daemon), so the JSON encoding — and therefore the digest — is
// canonical.
type masterState struct {
	Epoch       uint64             `json:"epoch"`
	Admitted    int                `json:"admitted"`
	Rejected    int                `json:"rejected"`
	Services    []jServiceState    `json:"services,omitempty"`
	Settled     []jSettled         `json:"settled,omitempty"`
	Holders     []jHolder          `json:"holders,omitempty"`
	Autoscalers []jAutoscalerState `json:"autoscalers,omitempty"`
}

// digest hashes the canonical JSON encoding of v.
func digest(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("soda: state digest: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// serviceAt finds the named service: its index, or where it would be
// inserted.
func (s *masterState) serviceAt(name string) (int, bool) {
	return slices.BinarySearchFunc(s.Services, name, func(x jServiceState, k string) int { return strings.Compare(x.Name, k) })
}

// service returns the named service's state, or nil.
func (s *masterState) service(name string) *jServiceState {
	if i, ok := s.serviceAt(name); ok {
		return &s.Services[i]
	}
	return nil
}

// node returns the named node of a service's state, or nil.
func (js *jServiceState) node(name string) *jNode {
	if i, ok := nodeAt(js.Nodes, name); ok {
		return &js.Nodes[i]
	}
	return nil
}

func nodeAt(nodes []jNode, name string) (int, bool) {
	return slices.BinarySearchFunc(nodes, name, func(x jNode, k string) int { return strings.Compare(x.Name, k) })
}

func (s *masterState) settledAt(name string) (int, bool) {
	return slices.BinarySearchFunc(s.Settled, name, func(x jSettled, k string) int { return strings.Compare(x.Service, k) })
}

func (s *masterState) autoscalerAt(name string) (int, bool) {
	return slices.BinarySearchFunc(s.Autoscalers, name, func(x jAutoscalerState, k string) int { return strings.Compare(x.Service, k) })
}

// autoscaler returns one service's autoscaler state, or nil.
func (s *masterState) autoscaler(name string) *autoscale.State {
	if i, ok := s.autoscalerAt(name); ok {
		return &s.Autoscalers[i].State
	}
	return nil
}

func (s *masterState) holderAt(image string, daemon int) (int, bool) {
	return slices.BinarySearchFunc(s.Holders, jHolder{Image: image, Daemon: daemon}, func(x, k jHolder) int {
		return cmp.Or(strings.Compare(x.Image, k.Image), cmp.Compare(x.Daemon, k.Daemon))
	})
}

// holder returns the occupancy entry for one (image, daemon) pair, or nil.
func (s *masterState) holder(image string, daemon int) *jHolder {
	if i, ok := s.holderAt(image, daemon); ok {
		return &s.Holders[i]
	}
	return nil
}

// removeService drops one service — and its autoscaler — from the state.
func (s *masterState) removeService(name string) {
	if i, ok := s.serviceAt(name); ok {
		s.Services = slices.Delete(s.Services, i, i+1)
	}
	if i, ok := s.autoscalerAt(name); ok {
		s.Autoscalers = slices.Delete(s.Autoscalers, i, i+1)
	}
}

// specOf converts a live spec into its journaled form. The autoscale
// policy is journaled normalized so the controller, the state and replay
// all see identical field values.
func specOf(spec ServiceSpec) jService {
	return jService{
		Name:         spec.Name,
		Image:        spec.ImageName,
		Repository:   string(spec.Repository),
		N:            spec.Requirement.N,
		M:            spec.Requirement.M,
		GuestProfile: spec.GuestProfile,
		Port:         spec.Port,
		SLO:          spec.SLO,
		Autoscale:    spec.Autoscale.Normalize(),
	}
}

// logicalSpec converts a journaled spec back into a live one. Behavior
// and SwitchPolicy are code and cannot be journaled; the caller grafts
// them from the HA layer's spec cache when available.
func (j jService) logicalSpec() ServiceSpec {
	return ServiceSpec{
		Name:         j.Name,
		ImageName:    j.Image,
		Repository:   simnet.IP(j.Repository),
		Requirement:  Requirement{N: j.N, M: j.M},
		GuestProfile: j.GuestProfile,
		Port:         j.Port,
		SLO:          j.SLO,
		Autoscale:    j.Autoscale,
	}
}

// commit is the only way the Master's logical state changes: it applies
// the typed record with the same apply that replay folds the journal
// through, then — when a journal is attached — appends the record and
// considers compaction. A snapshot an append triggers therefore always
// holds the record it follows.
func (m *Master) commit(typ string, rec any) {
	m.state.apply(typ, rec)
	if m.jlog == nil {
		return
	}
	m.jlog.Append(int64(m.net.Kernel().Now()), typ, rec)
	m.maybeSnapshot(false)
}

// apply folds one typed record into the state. rec is the payload type
// the table above names for typ.
func (s *masterState) apply(typ string, rec any) {
	switch typ {
	case "service-admitted":
		js := rec.(jService)
		s.Admitted++
		i, dup := s.serviceAt(js.Name)
		if dup {
			return
		}
		s.Services = slices.Insert(s.Services, i, jServiceState{jService: js, State: int(Priming)})
		if js.Autoscale.Enabled() {
			// Arming is implicit in admission: the live Master runs the
			// controller the instant the spec is committed.
			j, _ := s.autoscalerAt(js.Name)
			s.Autoscalers = slices.Insert(s.Autoscalers, j, jAutoscalerState{Service: js.Name})
		}
	case "service-rejected":
		s.Rejected++
		s.removeService(rec.(jName).Service)
	case "service-removed", "service-torndown":
		s.removeService(rec.(jName).Service)
	case "service-active":
		if js := s.service(rec.(jName).Service); js != nil {
			js.State = int(Active)
		}
	case "node-primed":
		np := rec.(jNodePrimed)
		js := s.service(np.Service)
		if js == nil {
			return
		}
		node := np.jNode
		node.Service = ""
		if i, ok := nodeAt(js.Nodes, node.Name); ok {
			js.Nodes[i] = node
		} else {
			js.Nodes = slices.Insert(js.Nodes, i, node)
		}
		if js.Home == "" {
			js.Home = node.Name
		}
		js.NextNodeID = max(js.NextNodeID, np.NextID)
	case "node-failed", "node-removed":
		nr := rec.(jNodeRef)
		js := s.service(nr.Service)
		if js == nil {
			return
		}
		if i, ok := nodeAt(js.Nodes, nr.Name); ok {
			js.Nodes = slices.Delete(js.Nodes, i, i+1)
		}
		if js.Home == nr.Name {
			// The Master re-homes the switch on the first survivor.
			js.Home = ""
			if len(js.Nodes) > 0 {
				js.Home = js.Nodes[0].Name
			}
		}
	case "node-resized":
		nr := rec.(jNodeRef)
		if js := s.service(nr.Service); js != nil {
			if n := js.node(nr.Name); n != nil {
				n.Capacity = nr.Capacity
			}
		}
	case "switch-homed":
		nr := rec.(jNodeRef)
		if js := s.service(nr.Service); js != nil {
			js.Home = nr.Name
		}
	case "usage-settled":
		u := rec.(jSettled)
		if i, ok := s.settledAt(u.Service); ok {
			s.Settled[i] = u
		} else {
			s.Settled = slices.Insert(s.Settled, i, u)
		}
	case "usage-claimed":
		if i, ok := s.settledAt(rec.(jName).Service); ok {
			s.Settled = slices.Delete(s.Settled, i, i+1)
		}
	case "chunk-announce":
		// The live tracker commits only first-time inserts, so the
		// holder's count grows by one; the image's chunk total ratchets up
		// across all its holders.
		jc := rec.(jChunk)
		i, ok := s.holderAt(jc.Image, jc.Daemon)
		if !ok {
			s.Holders = slices.Insert(s.Holders, i, jHolder{Image: jc.Image, Daemon: jc.Daemon, Total: jc.Total})
		}
		s.Holders[i].Chunks++
		first, _ := s.holderAt(jc.Image, math.MinInt)
		for j := first; j < len(s.Holders) && s.Holders[j].Image == jc.Image; j++ {
			s.Holders[j].Total = max(s.Holders[j].Total, jc.Total)
		}
	case "chunk-full":
		jc := rec.(jChunk)
		if h := s.holder(jc.Image, jc.Daemon); h != nil {
			h.Full = true
		}
	case "chunk-forget":
		d := rec.(jChunkRef).Daemon
		s.Holders = slices.DeleteFunc(s.Holders, func(h jHolder) bool { return h.Daemon == d })
	case "chunk-reset":
		s.Holders = nil
	case "epoch":
		// A takeover: services the old leader was still priming are lost
		// (their rejection follows), and the tracker restarts empty, to be
		// refilled from the daemons' resynchronization announces.
		s.Epoch = rec.(jEpoch).Epoch
		s.Holders = nil
		s.Services = slices.DeleteFunc(s.Services, func(js jServiceState) bool { return ServiceState(js.State) != Active })
		s.Autoscalers = slices.DeleteFunc(s.Autoscalers, func(a jAutoscalerState) bool { return s.service(a.Service) == nil })
	case "autoscale-decision":
		ja := rec.(jAutoscale)
		if a := s.autoscaler(ja.Service); a != nil {
			a.Pending = true
			a.PendingTarget = ja.To
			a.PendingDir = ja.Dir
		}
	case "autoscale-blocked":
		if a := s.autoscaler(rec.(jAutoscale).Service); a != nil {
			a.Blocked++
		}
	case "autoscale-done":
		// A failed resize still stamps the direction's cooldown clock —
		// the cooldown doubles as retry backoff — and counts as blocked.
		ja := rec.(jAutoscale)
		a := s.autoscaler(ja.Service)
		if a == nil {
			return
		}
		a.Pending = false
		a.PendingTarget = 0
		a.PendingDir = ""
		if ja.Dir == "up" {
			a.LastUp = sim.Time(ja.AtNs)
		} else {
			a.LastDown = sim.Time(ja.AtNs)
		}
		switch {
		case !ja.OK:
			a.Blocked++
		case ja.Dir == "up":
			a.Ups++
		default:
			a.Downs++
		}
	default:
		panic("soda: unknown record type " + typ)
	}
}

// payloads decodes each record type's payload into the value apply
// takes.
var payloads = map[string]func([]byte) (any, error){
	"service-admitted":   decode[jService],
	"service-rejected":   decode[jName],
	"service-removed":    decode[jName],
	"service-torndown":   decode[jName],
	"service-active":     decode[jName],
	"node-primed":        decode[jNodePrimed],
	"node-failed":        decode[jNodeRef],
	"node-removed":       decode[jNodeRef],
	"node-resized":       decode[jNodeRef],
	"switch-homed":       decode[jNodeRef],
	"usage-settled":      decode[jSettled],
	"usage-claimed":      decode[jName],
	"chunk-announce":     decode[jChunk],
	"chunk-full":         decode[jChunk],
	"chunk-forget":       decode[jChunkRef],
	"chunk-reset":        decode[struct{}],
	"epoch":              decode[jEpoch],
	"autoscale-decision": decode[jAutoscale],
	"autoscale-blocked":  decode[jAutoscale],
	"autoscale-done":     decode[jAutoscale],
}

func decode[T any](data []byte) (any, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// replayState folds journal records into the logical Master state. It is
// total: unknown record types and undecodable payloads are skipped, so a
// truncated-but-valid prefix always yields a state.
func replayState(recs []journal.Record) *masterState {
	st := &masterState{}
	for _, rec := range recs {
		if rec.Type == journal.SnapshotType {
			var snap masterState
			if json.Unmarshal(rec.Data, &snap) == nil {
				st = &snap
			}
			continue
		}
		dec, ok := payloads[rec.Type]
		if !ok {
			continue
		}
		if v, err := dec(rec.Data); err == nil {
			st.apply(rec.Type, v)
		}
	}
	return st
}

// StateDigest returns a SHA-256 over the Master's logical state. Two
// Masters with the same digest host the same services with the same node
// bindings, counters, settled bills, and tracker occupancy — the
// verification currency of the HA subsystem.
func (m *Master) StateDigest() string { return digest(m.state) }

// TrackerDigest returns a SHA-256 over the chunk tracker's holder
// occupancy alone. The failover regression compares it before the crash
// and after the new leader rebuilt the map purely from daemon announces.
func (m *Master) TrackerDigest() string {
	if len(m.state.Holders) == 0 {
		return digest(nil) // however the holders were emptied
	}
	return digest(m.state.Holders)
}

// ReplayDigest replays a journal image and returns the digest of the
// reconstructed state plus the replay report. Comparing it against the
// pre-crash StateDigest proves the journal captured everything.
func ReplayDigest(data []byte) (string, journal.ReplayReport) {
	recs, rep := journal.Replay(data)
	return digest(replayState(recs)), rep
}
