package soda

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/accounting"
	"repro/internal/autoscale"
	"repro/internal/journal"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
)

// The Master's journaled state. Every control-plane mutation appends a
// typed record to the write-ahead journal (internal/journal); replaying
// the journal reconstructs masterState, the logical form of everything
// the Master knows that cannot be re-derived from the daemons alone:
// hosted services and their node bindings, admission counters, settled
// usage, and the chunk tracker's holder occupancy. Function-valued spec
// fields (Behavior, SwitchPolicy) are deliberately absent — they are
// code, not state, and the HA layer re-supplies them from its spec cache
// after a failover.
//
// Journal record types:
//
//	service-admitted   jService    insert priming service, Admitted++
//	                               (one per partitioned component)
//	service-rejected   jName       Rejected++, drop service if present
//	service-removed    jName       drop service (rollback)
//	node-primed        jNodePrimed append node, advance next node ID
//	node-failed        jNodeRef    remove node (host/guest death)
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
//	epoch              jEpoch      leadership epoch advanced
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
	Service       string `json:"service"`
	LastUpNs      int64  `json:"last_up_ns,omitempty"`
	LastDownNs    int64  `json:"last_down_ns,omitempty"`
	Ups           uint64 `json:"ups,omitempty"`
	Downs         uint64 `json:"downs,omitempty"`
	Blocked       uint64 `json:"blocked,omitempty"`
	Pending       bool   `json:"pending,omitempty"`
	PendingTarget int    `json:"pending_target,omitempty"`
	PendingDir    string `json:"pending_dir,omitempty"`
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

// masterState is the Master's complete logical state: what a replay of
// the journal reconstructs, and what StateDigest hashes. All slices are
// kept sorted so the JSON encoding — and therefore the digest — is
// deterministic.
type masterState struct {
	Epoch       uint64             `json:"epoch"`
	Admitted    int                `json:"admitted"`
	Rejected    int                `json:"rejected"`
	Services    []jServiceState    `json:"services,omitempty"`
	Settled     []jSettled         `json:"settled,omitempty"`
	Holders     []jHolder          `json:"holders,omitempty"`
	Autoscalers []jAutoscalerState `json:"autoscalers,omitempty"`
}

// digest hashes the canonical JSON encoding.
func (s *masterState) digest() string {
	blob, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("soda: state digest: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// service returns the named service's state, or nil.
func (s *masterState) service(name string) *jServiceState {
	for i := range s.Services {
		if s.Services[i].Name == name {
			return &s.Services[i]
		}
	}
	return nil
}

// specOf converts a live spec into its journaled form. The autoscale
// policy is journaled normalized so live arming, capture, and replay
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

// captureState serializes the Master's live state into its logical form.
func (m *Master) captureState() *masterState {
	st := &masterState{
		Epoch:    m.epoch,
		Admitted: m.Admitted,
		Rejected: m.Rejected,
	}
	for _, name := range m.Services() {
		svc := m.services[name]
		js := jServiceState{
			jService:   specOf(svc.Spec),
			State:      int(svc.State),
			NextNodeID: svc.nextNodeID,
		}
		if len(svc.Nodes) > 0 {
			js.Home = svc.Nodes[0].NodeName
		}
		for _, n := range svc.Nodes {
			js.Nodes = append(js.Nodes, jNodeOf("", n, svc.nodeDaemon[n.NodeName]))
		}
		sort.Slice(js.Nodes, func(i, j int) bool { return js.Nodes[i].Name < js.Nodes[j].Name })
		st.Services = append(st.Services, js)
	}
	for name, u := range m.settled {
		st.Settled = append(st.Settled, jSettled{Service: name, Usage: u})
	}
	sort.Slice(st.Settled, func(i, j int) bool { return st.Settled[i].Service < st.Settled[j].Service })
	st.Holders = captureHolders(m.chunkDist)
	autoNames := make([]string, 0, len(m.autos))
	for n := range m.autos {
		autoNames = append(autoNames, n)
	}
	sort.Strings(autoNames)
	for _, n := range autoNames {
		st.Autoscalers = append(st.Autoscalers, m.autos[n].captured(n))
	}
	return st
}

// captureHolders flattens the chunk tracker's occupancy into the sorted
// journaled form.
func captureHolders(t *chunkTracker) []jHolder {
	if t == nil {
		return nil
	}
	var out []jHolder
	names := make([]string, 0, len(t.images))
	for n := range t.images {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ih := t.images[n]
		idxs := make([]int, 0, len(ih.perDaemon))
		for di := range ih.perDaemon {
			idxs = append(idxs, di)
		}
		sort.Ints(idxs)
		for _, di := range idxs {
			out = append(out, jHolder{
				Image: n, Daemon: di, Chunks: ih.perDaemon[di],
				Full: ih.full[di], Total: ih.chunkTotal,
			})
		}
	}
	return out
}

// StateDigest returns a SHA-256 over the Master's logical state. Two
// Masters with the same digest host the same services with the same node
// bindings, counters, settled bills, and tracker occupancy — the
// verification currency of the HA subsystem.
func (m *Master) StateDigest() string { return m.captureState().digest() }

// TrackerDigest returns a SHA-256 over the chunk tracker's holder
// occupancy alone. The failover regression compares it before the crash
// and after the new leader rebuilt the map purely from daemon announces.
func (m *Master) TrackerDigest() string {
	blob, err := json.Marshal(captureHolders(m.chunkDist))
	if err != nil {
		panic(fmt.Sprintf("soda: tracker digest: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// ReplayDigest replays a journal image and returns the digest of the
// reconstructed state plus the replay report. Comparing it against the
// pre-crash StateDigest proves the journal captured everything.
func ReplayDigest(data []byte) (string, journal.ReplayReport) {
	recs, rep := journal.Replay(data)
	return replayState(recs).digest(), rep
}

// replayState folds journal records into the logical Master state. It is
// total: unknown record types and undecodable payloads are skipped, so a
// truncated-but-valid prefix always yields a state.
func replayState(recs []journal.Record) *masterState {
	st := &masterState{}
	for _, rec := range recs {
		switch rec.Type {
		case journal.SnapshotType:
			var snap masterState
			if json.Unmarshal(rec.Data, &snap) == nil {
				st = &snap
			}
		case "service-admitted":
			var js jService
			if json.Unmarshal(rec.Data, &js) != nil {
				continue
			}
			st.Admitted++
			if st.service(js.Name) == nil {
				st.Services = append(st.Services, jServiceState{jService: js, State: int(Priming)})
				if js.Autoscale.Enabled() {
					// Arming is implicit in admission: the live Master creates
					// the autoscaler the instant the spec is journaled.
					st.Autoscalers = append(st.Autoscalers, jAutoscalerState{Service: js.Name})
				}
			}
		case "service-rejected":
			var n jName
			if json.Unmarshal(rec.Data, &n) == nil {
				st.Rejected++
				st.removeService(n.Service)
			}
		case "service-removed", "service-torndown":
			var n jName
			if json.Unmarshal(rec.Data, &n) == nil {
				st.removeService(n.Service)
			}
		case "service-active":
			var n jName
			if json.Unmarshal(rec.Data, &n) == nil {
				if s := st.service(n.Service); s != nil {
					s.State = int(Active)
				}
			}
		case "node-primed":
			var np jNodePrimed
			if json.Unmarshal(rec.Data, &np) != nil {
				continue
			}
			s := st.service(np.Service)
			if s == nil {
				continue
			}
			node := np.jNode
			node.Service = ""
			replaced := false
			for i := range s.Nodes {
				if s.Nodes[i].Name == node.Name {
					s.Nodes[i] = node
					replaced = true
					break
				}
			}
			if !replaced {
				s.Nodes = append(s.Nodes, node)
			}
			if np.NextID > s.NextNodeID {
				s.NextNodeID = np.NextID
			}
		case "node-failed", "node-removed":
			var nr jNodeRef
			if json.Unmarshal(rec.Data, &nr) != nil {
				continue
			}
			if s := st.service(nr.Service); s != nil {
				for i := range s.Nodes {
					if s.Nodes[i].Name == nr.Name {
						s.Nodes = append(s.Nodes[:i], s.Nodes[i+1:]...)
						break
					}
				}
				if s.Home == nr.Name {
					s.Home = ""
				}
			}
		case "node-resized":
			var nr jNodeRef
			if json.Unmarshal(rec.Data, &nr) != nil {
				continue
			}
			if s := st.service(nr.Service); s != nil {
				for i := range s.Nodes {
					if s.Nodes[i].Name == nr.Name {
						s.Nodes[i].Capacity = nr.Capacity
						break
					}
				}
			}
		case "switch-homed":
			var nr jNodeRef
			if json.Unmarshal(rec.Data, &nr) != nil {
				continue
			}
			if s := st.service(nr.Service); s != nil {
				s.Home = nr.Name
			}
		case "usage-settled":
			var js jSettled
			if json.Unmarshal(rec.Data, &js) != nil {
				continue
			}
			found := false
			for i := range st.Settled {
				if st.Settled[i].Service == js.Service {
					st.Settled[i] = js
					found = true
					break
				}
			}
			if !found {
				st.Settled = append(st.Settled, js)
			}
		case "usage-claimed":
			var n jName
			if json.Unmarshal(rec.Data, &n) != nil {
				continue
			}
			for i := range st.Settled {
				if st.Settled[i].Service == n.Service {
					st.Settled = append(st.Settled[:i], st.Settled[i+1:]...)
					break
				}
			}
		case "chunk-announce":
			var jc jChunk
			if json.Unmarshal(rec.Data, &jc) == nil {
				st.announceHolder(jc)
			}
		case "chunk-full":
			var jc jChunk
			if json.Unmarshal(rec.Data, &jc) == nil {
				if h := st.holder(jc.Image, jc.Daemon); h != nil {
					h.Full = true
				}
			}
		case "chunk-forget":
			var cr jChunkRef
			if json.Unmarshal(rec.Data, &cr) == nil {
				kept := st.Holders[:0]
				for _, h := range st.Holders {
					if h.Daemon != cr.Daemon {
						kept = append(kept, h)
					}
				}
				st.Holders = kept
			}
		case "chunk-reset":
			st.Holders = nil
		case "epoch":
			var je jEpoch
			if json.Unmarshal(rec.Data, &je) == nil {
				st.Epoch = je.Epoch
			}
		case "autoscale-decision":
			var ja jAutoscale
			if json.Unmarshal(rec.Data, &ja) == nil {
				if a := st.autoscaler(ja.Service); a != nil {
					a.Pending = true
					a.PendingTarget = ja.To
					a.PendingDir = ja.Dir
				}
			}
		case "autoscale-blocked":
			var ja jAutoscale
			if json.Unmarshal(rec.Data, &ja) == nil {
				if a := st.autoscaler(ja.Service); a != nil {
					a.Blocked++
				}
			}
		case "autoscale-done":
			var ja jAutoscale
			if json.Unmarshal(rec.Data, &ja) == nil {
				if a := st.autoscaler(ja.Service); a != nil {
					a.Pending = false
					a.PendingTarget = 0
					a.PendingDir = ""
					if ja.Dir == "up" {
						a.LastUpNs = ja.AtNs
					} else {
						a.LastDownNs = ja.AtNs
					}
					switch {
					case !ja.OK:
						a.Blocked++
					case ja.Dir == "up":
						a.Ups++
					default:
						a.Downs++
					}
				}
			}
		}
	}
	st.canonicalize()
	return st
}

// holder finds the occupancy entry for one (image, daemon) pair.
func (s *masterState) holder(image string, daemon int) *jHolder {
	for i := range s.Holders {
		if s.Holders[i].Image == image && s.Holders[i].Daemon == daemon {
			return &s.Holders[i]
		}
	}
	return nil
}

// announceHolder applies one chunk-announce: the holder's count grows by
// one (the live tracker journals only first-time inserts) and the
// image's chunk total ratchets up across all its holders.
func (s *masterState) announceHolder(jc jChunk) {
	h := s.holder(jc.Image, jc.Daemon)
	if h == nil {
		s.Holders = append(s.Holders, jHolder{Image: jc.Image, Daemon: jc.Daemon, Total: jc.Total})
		h = &s.Holders[len(s.Holders)-1]
	}
	h.Chunks++
	for i := range s.Holders {
		if s.Holders[i].Image == jc.Image && s.Holders[i].Total < jc.Total {
			s.Holders[i].Total = jc.Total
		}
	}
}

// autoscaler finds one service's autoscaler state, or nil.
func (s *masterState) autoscaler(name string) *jAutoscalerState {
	for i := range s.Autoscalers {
		if s.Autoscalers[i].Service == name {
			return &s.Autoscalers[i]
		}
	}
	return nil
}

// removeService drops one service — and its autoscaler — from the state.
func (s *masterState) removeService(name string) {
	for i := range s.Services {
		if s.Services[i].Name == name {
			s.Services = append(s.Services[:i], s.Services[i+1:]...)
			break
		}
	}
	for i := range s.Autoscalers {
		if s.Autoscalers[i].Service == name {
			s.Autoscalers = append(s.Autoscalers[:i], s.Autoscalers[i+1:]...)
			return
		}
	}
}

// canonicalize sorts every slice so the digest is deterministic,
// matching captureState's ordering.
func (s *masterState) canonicalize() {
	sort.Slice(s.Services, func(i, j int) bool { return s.Services[i].Name < s.Services[j].Name })
	for i := range s.Services {
		nodes := s.Services[i].Nodes
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].Name < nodes[b].Name })
	}
	sort.Slice(s.Settled, func(i, j int) bool { return s.Settled[i].Service < s.Settled[j].Service })
	sort.Slice(s.Holders, func(i, j int) bool {
		if s.Holders[i].Image != s.Holders[j].Image {
			return s.Holders[i].Image < s.Holders[j].Image
		}
		return s.Holders[i].Daemon < s.Holders[j].Daemon
	})
	sort.Slice(s.Autoscalers, func(i, j int) bool { return s.Autoscalers[i].Service < s.Autoscalers[j].Service })
}
