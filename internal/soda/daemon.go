package soda

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/flight"
	"repro/internal/hostos"
	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
	"repro/internal/uml"
)

// ErrStaleEpoch rejects a command from a fenced (superseded) Master.
// After a failover every daemon learns the new leadership epoch; a
// revived or partitioned old leader still issuing commands at its old
// epoch is refused, which is what keeps split-brain mutations out of
// the hosts.
var ErrStaleEpoch = errors.New("soda: stale-epoch command fenced")

// AddressMode selects how a daemon gives virtual service nodes network
// identities (§3.3 and its footnote 3).
type AddressMode int

// Address modes.
const (
	// Bridging assigns each node its own IP from the daemon's pool and
	// registers it with the host's transparent bridge — the paper's
	// primary design.
	Bridging AddressMode = iota
	// Proxying shares the host's IP among nodes, distinguishing them by
	// port — the footnote-3 fallback "if the scarcity of IP addresses
	// becomes a problem". Per-node outbound shaping is unavailable in
	// this mode (the shaper keys on source IP).
	Proxying
)

// String names the mode.
func (m AddressMode) String() string {
	if m == Proxying {
		return "proxying"
	}
	return "bridging"
}

// Daemon is the system-level SODA entity running in each HUP host as a
// host-OS process (§3.3). It reports resource availability to the Master,
// reserves host slices, downloads service images, bootstraps virtual
// service nodes (guest OS first, then the service), assigns IP addresses
// from its pool, and notifies the bridging module.
type Daemon struct {
	// HostIP is the host's own address (where the daemon listens).
	HostIP simnet.IP

	host     *hostos.Host
	nic      *simnet.NIC
	net      *simnet.Network
	pool     *simnet.IPPool
	repos    map[simnet.IP]*image.Repository
	nextUID  int
	nodes    map[string]*nodeRuntime
	mode     AddressMode
	nextPort int

	// crashed marks a crash-stopped daemon: it stops heartbeating,
	// refuses work, and holds its bookkeeping until Restore sweeps it.
	crashed bool
	// pending tracks primes still in flight (reserve → download → boot),
	// so Teardown and Crash can cancel them without leaking the slice,
	// the bridged IP, or a half-built RAM disk.
	pending map[string]*pendingPrime
	rng     *sim.RNG
	retry   DownloadRetryConfig
	// crashSink, when set, receives guest-crash notifications (the
	// Master's failure detector registers one per service node).
	crashSink func(service, node, reason string)

	// beatRNG jitters this daemon's heartbeat schedule and its
	// post-failover resynchronization delay. A dedicated stream (distinct
	// from the download-retry rng) so HA never perturbs existing
	// randomness consumers.
	beatRNG *sim.RNG
	// fenceEpoch is the highest leadership epoch this daemon has
	// observed; commands stamped with an older epoch are refused.
	fenceEpoch uint64
	// switches holds the service switches homed on this host's nodes —
	// the live routing objects a new leader re-adopts at failover.
	switches map[string]*HostedSwitch

	// store is the content-addressed chunk cache; nil until
	// Master.EnableChunkDistribution gives the daemon one and points
	// coord/coordIdx at the tracker.
	store    *chunkStore
	coord    *Master
	coordIdx int
	chunkCfg ChunkFetchConfig
	fetchSet *simnet.FetchSet
	// fetching dedups concurrent chunked fetches of the same image on
	// this daemon: one engine run, many waiters.
	fetching map[string]*chunkFetchJob

	// Primed counts nodes successfully bootstrapped; TornDown counts
	// nodes removed. CacheHits counts downloads avoided by the cache.
	// DownloadRetries counts image-download attempts re-issued after a
	// transient failure (reset connection, checksum mismatch, timeout).
	Primed, TornDown, CacheHits, DownloadRetries int

	// Chunk-distribution accounting: chunks already held locally (hits),
	// fetched from peers vs. the repository, served to peers, and
	// re-fetched after a per-chunk checksum mismatch; byte odometers
	// split priming traffic by source.
	ChunksHit, ChunksPeer, ChunksOrigin, ChunksServed, ChunkRefetches int
	BytesFromPeers, BytesFromOrigin                                   int64

	// flog carries the daemon's structured diagnostics into the flight
	// recorder; nil (no-op) until SetFlightLogger.
	flog *flight.Logger

	// Telemetry instruments, labeled by host. The counters mirror the
	// exported fields above; the stage histograms collect only once
	// Instrument connects a registry.
	reg              *telemetry.Registry
	primedCtr        *telemetry.Counter
	tornDownCtr      *telemetry.Counter
	cacheHitCtr      *telemetry.Counter
	downloadRetryCtr *telemetry.Counter
	chunkHitCtr      *telemetry.Counter
	chunkPeerCtr     *telemetry.Counter
	chunkOriginCtr   *telemetry.Counter
	chunkServedCtr   *telemetry.Counter
	chunkRefetchCtr  *telemetry.Counter
	bytesPeerCtr     *telemetry.Counter
	bytesOriginCtr   *telemetry.Counter
	liveNodes        *telemetry.Gauge
	downloadHist     *telemetry.Histogram
	bootHist         *telemetry.Histogram
}

// pendingPrime is one in-flight priming operation.
type pendingPrime struct {
	uid       int
	cancelled bool
	// epoch is the leadership epoch of the Master that issued the prime;
	// a fence rising past it cancels the prime (see ObserveEpoch).
	epoch uint64
}

// DownloadRetryConfig tunes the daemon's image-download robustness:
// per-attempt deadline, bounded retries with exponential backoff, and
// seeded jitter so concurrent retries don't synchronise.
type DownloadRetryConfig struct {
	// Attempts is the total number of download attempts (first + retries).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles per
	// retry, capped at MaxBackoff.
	Backoff sim.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff sim.Duration
	// Timeout is the per-attempt deadline; 0 disables it. It must
	// comfortably exceed a legitimate download of the largest image
	// (the paper's 400 MB image takes ~35 s on the 100 Mbps testbed).
	Timeout sim.Duration
	// JitterFrac spreads each backoff by ±frac.
	JitterFrac float64
}

// DefaultDownloadRetry returns the daemon's retry defaults.
func DefaultDownloadRetry() DownloadRetryConfig {
	return DownloadRetryConfig{
		Attempts:   3,
		Backoff:    500 * sim.Millisecond,
		MaxBackoff: 5 * sim.Second,
		Timeout:    120 * sim.Second,
		JitterFrac: 0.2,
	}
}

// nodeRuntime is the daemon's bookkeeping for one virtual service node.
type nodeRuntime struct {
	info        NodeInfo
	service     string
	reservation *hostos.Reservation
	diskMB      int
	proxied     bool
}

// HostedSwitch is a service switch running in one of this host's nodes,
// as handed over to a resynchronizing Master.
type HostedSwitch struct {
	Service string
	Switch  *svcswitch.Switch
	Config  *svcswitch.ConfigFile
}

// DaemonConfig wires one daemon to its host and network.
type DaemonConfig struct {
	Host *hostos.Host
	NIC  *simnet.NIC
	Net  *simnet.Network
	// HostIP is the host's bridged address (must already be on the NIC).
	HostIP simnet.IP
	// Pool is this daemon's IP address pool; pools of different daemons
	// must be disjoint (§4.3).
	Pool *simnet.IPPool
	// UIDBase starts the userid range for this host's service nodes.
	UIDBase int
	// Mode selects bridging (default) or the footnote-3 proxying.
	Mode AddressMode
	// RNG drives download-retry jitter; nil derives an independent
	// stream from UIDBase so existing testbeds' randomness is untouched.
	RNG *sim.RNG
	// Retry tunes image-download retries; zero value means defaults.
	Retry DownloadRetryConfig
}

// NewDaemon starts a SODA Daemon on a host.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Host == nil || cfg.NIC == nil || cfg.Net == nil || cfg.Pool == nil {
		return nil, fmt.Errorf("soda: daemon config missing host/nic/net/pool")
	}
	if _, ok := cfg.Net.Lookup(cfg.HostIP); !ok {
		return nil, fmt.Errorf("soda: daemon host IP %s not bridged", cfg.HostIP)
	}
	if cfg.UIDBase <= 0 {
		cfg.UIDBase = 10000
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(0xDAE0 ^ uint64(cfg.UIDBase))
	}
	if cfg.Retry == (DownloadRetryConfig{}) {
		cfg.Retry = DefaultDownloadRetry()
	}
	d := &Daemon{
		HostIP:   cfg.HostIP,
		host:     cfg.Host,
		nic:      cfg.NIC,
		net:      cfg.Net,
		pool:     cfg.Pool,
		repos:    make(map[simnet.IP]*image.Repository),
		nextUID:  cfg.UIDBase,
		nodes:    make(map[string]*nodeRuntime),
		mode:     cfg.Mode,
		nextPort: 9000,
		pending:  make(map[string]*pendingPrime),
		rng:      cfg.RNG,
		retry:    cfg.Retry,
		beatRNG:  sim.NewRNG(0xBEA7 ^ uint64(cfg.UIDBase)),
		switches: make(map[string]*HostedSwitch),
	}
	d.Instrument(nil)
	return d, nil
}

// Instrument connects the daemon's counters, node gauge, and priming
// stage histograms to a registry, labeled by host name. A nil registry
// (the default) keeps the counters working but disables histogram
// collection.
func (d *Daemon) Instrument(reg *telemetry.Registry) {
	host := telemetry.L("host", d.host.Spec.Name)
	primed := reg.Counter("soda_daemon_primed_total", host)
	torn := reg.Counter("soda_daemon_torndown_total", host)
	hits := reg.Counter("soda_daemon_cache_hits_total", host)
	retries := reg.Counter("soda_daemon_download_retries_total", host)
	primed.Add(int64(d.Primed))
	torn.Add(int64(d.TornDown))
	hits.Add(int64(d.CacheHits))
	retries.Add(int64(d.DownloadRetries))
	d.reg = reg
	d.primedCtr, d.tornDownCtr, d.cacheHitCtr = primed, torn, hits
	d.downloadRetryCtr = retries
	d.chunkHitCtr = reg.Counter("soda_image_chunks_hit_total", host)
	d.chunkPeerCtr = reg.Counter("soda_image_chunks_peer_total", host)
	d.chunkOriginCtr = reg.Counter("soda_image_chunks_origin_total", host)
	d.chunkServedCtr = reg.Counter("soda_image_chunks_served_total", host)
	d.chunkRefetchCtr = reg.Counter("soda_image_chunk_refetches_total", host)
	d.bytesPeerCtr = reg.Counter("soda_prime_bytes_from_peer", host)
	d.bytesOriginCtr = reg.Counter("soda_prime_bytes_from_origin", host)
	d.chunkHitCtr.Add(int64(d.ChunksHit))
	d.chunkPeerCtr.Add(int64(d.ChunksPeer))
	d.chunkOriginCtr.Add(int64(d.ChunksOrigin))
	d.chunkServedCtr.Add(int64(d.ChunksServed))
	d.chunkRefetchCtr.Add(int64(d.ChunkRefetches))
	d.bytesPeerCtr.Add(d.BytesFromPeers)
	d.bytesOriginCtr.Add(d.BytesFromOrigin)
	d.liveNodes = reg.Gauge("soda_daemon_nodes", host)
	d.liveNodes.Set(float64(len(d.nodes)))
	d.downloadHist = reg.Histogram("soda_prime_download_seconds", nil, host)
	d.bootHist = reg.Histogram("soda_prime_boot_seconds", nil, host)
}

// SetFlightLogger routes the daemon's structured diagnostics into the
// flight recorder, stamped with the host name. Nil restores the no-op
// default.
func (d *Daemon) SetFlightLogger(l *flight.Logger) {
	d.flog = l.Component("daemon", telemetry.L("host", d.host.Spec.Name))
}

// Mode returns the daemon's address mode.
func (d *Daemon) Mode() AddressMode { return d.mode }

// CachedImages returns how many assembled master images are pinned.
func (d *Daemon) CachedImages() int {
	if d.store == nil {
		return 0
	}
	return len(d.store.images)
}

// DropImageCache releases every pinned master image and the chunk
// store's contents, and withdraws this daemon from the tracker's holder
// sets.
func (d *Daemon) DropImageCache() {
	if d.store == nil {
		return
	}
	for name, si := range d.store.images {
		d.host.FreeDisk(si.diskMB)
		delete(d.store.images, name)
	}
	d.store.chunks = make(map[uint64]int64)
	if d.coord != nil && d.coord.chunkDist != nil {
		d.coord.forgetHolder(d.coordIdx)
	}
}

// fetchImage produces a private clone of the named image. With chunk
// distribution on, that is a local clone when the store holds it
// assembled, else a tracker-planned multi-source chunk fetch; otherwise
// it is the paper's whole-image HTTP download (§4.3). fanOut is how many
// sibling primes were fanned out with this one — it pre-sizes download
// deadlines for repository-link contention. parent is the prime's
// image.download span.
func (d *Daemon) fetchImage(repo *image.Repository, name string, fanOut int, parent *telemetry.Span, onDone func(*image.Image), onErr func(error)) {
	if d.store != nil {
		if si, hit := d.store.images[name]; hit {
			d.CacheHits++
			d.cacheHitCtr.Inc()
			d.ChunksHit += len(si.manifest.Chunks)
			d.chunkHitCtr.Add(int64(len(si.manifest.Chunks)))
			// Cloning the cached master costs a local disk read, not a
			// network transfer.
			p := d.host.Spawn("sodad/cache-clone", 0)
			p.ReadDiskSequential(si.img.SizeBytes(), func() {
				d.host.Kill(p)
				onDone(si.img.Clone())
			})
			return
		}
		d.fetchChunked(repo, name, fanOut, parent, onDone, onErr)
		return
	}
	d.downloadWithRetry(repo, name, fanOut, onDone, onErr)
}

// SetDownloadRetry replaces the download retry tuning.
func (d *Daemon) SetDownloadRetry(cfg DownloadRetryConfig) { d.retry = cfg }

// downloadWithRetry performs the HTTP download with a per-attempt
// deadline, checksum verification, and bounded exponential backoff with
// jitter on transient failures. Permanent failures (the image is not
// published) fail fast. fanOut widens the per-attempt deadline for
// repository-link contention: a mass prime of N replicas shares the
// repository NIC, so each flow legitimately takes ~N times the lone-flow
// estimate and must not be misdiagnosed as a stall.
func (d *Daemon) downloadWithRetry(repo *image.Repository, name string, fanOut int, onDone func(*image.Image), onErr func(error)) {
	cfg := d.retry
	if cfg.Attempts < 1 {
		cfg.Attempts = 1
	}
	if fanOut > 1 && cfg.Timeout > 0 {
		if im, err := repo.Lookup(name); err == nil {
			if nic, ok := d.net.Lookup(repo.IP); ok {
				if est := 2 * image.EstimateDownloadTimeContended(im, nic.RateMbps(), fanOut); est > cfg.Timeout {
					cfg.Timeout = est
				}
			}
		}
	}
	k := d.net.Kernel()
	var attempt func(n int)
	attempt = func(n int) {
		settled := false
		var deadline sim.Timer
		settle := func() bool {
			if settled {
				return false
			}
			settled = true
			deadline.Cancel()
			return true
		}
		retryOrFail := func(err error) {
			if !errors.Is(err, image.ErrTransient) || n >= cfg.Attempts {
				onErr(err)
				return
			}
			d.DownloadRetries++
			d.downloadRetryCtr.Inc()
			d.flog.Warn("image download retry",
				telemetry.L("image", name),
				telemetry.L("attempt", fmt.Sprint(n)),
				telemetry.L("error", err.Error()))
			backoff := cfg.Backoff
			for i := 1; i < n; i++ {
				backoff *= 2
				if cfg.MaxBackoff > 0 && backoff >= cfg.MaxBackoff {
					backoff = cfg.MaxBackoff
					break
				}
			}
			backoff = d.rng.JitterDuration(backoff, cfg.JitterFrac)
			k.After(backoff, func() { attempt(n + 1) })
		}
		if cfg.Timeout > 0 {
			deadline = k.After(cfg.Timeout, func() {
				if settled {
					return // a late completion will be discarded by settle
				}
				settled = true
				retryOrFail(fmt.Errorf("soda: download of %q timed out after %v: %w",
					name, cfg.Timeout, image.ErrTransient))
			})
		}
		repo.Download(name, d.HostIP, func(img *image.Image) {
			if !settle() {
				return
			}
			if !img.Verify() {
				retryOrFail(fmt.Errorf("soda: image %q failed checksum verification: %w",
					name, image.ErrTransient))
				return
			}
			onDone(img)
		}, func(err error) {
			if !settle() {
				return
			}
			retryOrFail(err)
		})
	}
	attempt(1)
}

// Host returns the daemon's HUP host.
func (d *Daemon) Host() *hostos.Host { return d.host }

// RegisterRepository teaches the daemon how to reach an image repository
// (the simulation's stand-in for HTTP name resolution).
func (d *Daemon) RegisterRepository(r *image.Repository) {
	d.repos[r.IP] = r
}

// Availability reports the host's unreserved resources — what the Master
// collects before admission (§3.2).
func (d *Daemon) Availability() hostos.SliceRequest {
	return d.host.Available()
}

// Nodes returns the number of live nodes on this host.
func (d *Daemon) Nodes() int { return len(d.nodes) }

// PrimeRequest is the Master's command to create one virtual service
// node.
type PrimeRequest struct {
	// ServiceName and NodeName label the node.
	ServiceName, NodeName string
	// ImageName and Repository locate the service image (§3.1).
	ImageName  string
	Repository simnet.IP
	// M and Instances size the node: a slice of Instances machine
	// configurations (capacity), inflated by Factor for CPU/bandwidth.
	M         MachineConfig
	Instances int
	Factor    float64
	// GuestProfile is the image's guest-OS configuration for tailoring.
	GuestProfile []string
	// Port is the service's listen port.
	Port int
	// FanOut is how many sibling primes the Master fanned out together
	// with this one (including it); the daemon uses it to pre-size
	// download deadlines for repository-link contention. 0 means 1.
	FanOut int
	// Span, when non-nil, is the priming trace span the Master opened for
	// this node; the daemon and guest boot attach stage child spans to it
	// (image.download, guest.boot, service.bootstrap).
	Span *telemetry.Span
	// Epoch is the issuing Master's leadership epoch; commands older than
	// the daemon's fence are refused. 0 (unclustered) always passes a
	// zero fence.
	Epoch uint64
}

// Prime performs service priming (§3.3): reserve a slice, assign an IP
// and notify the bridge, install the traffic-shaper cap, download the
// image, and bootstrap the node (guest OS, then service). The daemon
// then steps out of the way — it "will not interfere with the
// interactions between the virtual service node and the host OS".
func (d *Daemon) Prime(req PrimeRequest, onDone func(NodeInfo), onErr func(error)) {
	fail := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	if d.crashed {
		fail(fmt.Errorf("soda: %s: daemon is down", d.host.Spec.Name))
		return
	}
	if req.Epoch < d.fenceEpoch {
		fail(fmt.Errorf("soda: %s: prime of %q at epoch %d < fence %d: %w",
			d.host.Spec.Name, req.NodeName, req.Epoch, d.fenceEpoch, ErrStaleEpoch))
		return
	}
	if req.Instances <= 0 {
		fail(fmt.Errorf("soda: prime with %d instances", req.Instances))
		return
	}
	if _, dup := d.pending[req.NodeName]; dup {
		fail(fmt.Errorf("soda: %s: node %q already priming", d.host.Spec.Name, req.NodeName))
		return
	}
	if req.Factor == 0 {
		req.Factor = SlowdownFactor
	}
	repo := d.repos[req.Repository]
	if repo == nil {
		fail(fmt.Errorf("soda: %s: unknown image repository %s", d.host.Spec.Name, req.Repository))
		return
	}

	// 1. Reserve the slice.
	alloc := req.Span.StartChild("slice.alloc",
		telemetry.L("instances", fmt.Sprintf("%d", req.Instances)))
	slice := InflatedSlice(req.M, req.Instances, req.Factor)
	uid := d.nextUID
	d.nextUID++
	reservation, err := d.host.Reserve(uid, slice)
	if err != nil {
		alloc.Fail(err)
		fail(err)
		return
	}
	// 2. Give the node a network identity. Bridging: a pool IP registered
	// with the host bridge, plus a per-IP shaper share. Proxying
	// (footnote 3): the host's own IP with a unique port; no per-node
	// shaping is possible.
	var ip simnet.IP
	port := req.Port
	proxied := d.mode == Proxying
	if proxied {
		ip = d.HostIP
		port = d.nextPort
		d.nextPort++
	} else {
		var err error
		ip, err = d.pool.Allocate()
		if err != nil {
			reservation.Release()
			alloc.Fail(err)
			fail(err)
			return
		}
		if err := d.nic.AddIP(ip); err != nil {
			d.pool.Release(ip)
			reservation.Release()
			alloc.Fail(err)
			fail(err)
			return
		}
		// 3. Traffic shaper: enforce the node's outbound bandwidth share.
		d.nic.SetShaperCap(ip, slice.BandwidthMbps)
	}
	alloc.Annotate("ip", string(ip))
	alloc.EndSpan()

	p := &pendingPrime{uid: uid, epoch: req.Epoch}
	d.pending[req.NodeName] = p

	abort := func(err error) {
		delete(d.pending, req.NodeName)
		if !proxied {
			d.nic.SetShaperCap(ip, 0)
			d.nic.RemoveIP(ip)
			d.pool.Release(ip)
		}
		reservation.Release()
		fail(err)
	}

	// 4. Obtain the service image: download from the ASP's repository
	// (HTTP/1.1), or fetch it as chunks when chunk distribution is on.
	k := d.net.Kernel()
	downloadStart := k.Now()
	download := req.Span.StartChild("image.download", telemetry.L("image", req.ImageName))
	d.fetchImage(repo, req.ImageName, req.FanOut, download, func(img *image.Image) {
		download.EndSpan()
		if p.cancelled {
			abort(fmt.Errorf("soda: prime of %q cancelled", req.NodeName))
			return
		}
		downloadTime := k.Now().Sub(downloadStart)
		d.downloadHist.Observe(downloadTime.Seconds())
		sizeMB := img.SizeMB()
		if err := d.host.UseDisk(sizeMB); err != nil {
			abort(err)
			return
		}
		// 5. Bootstrap: tailor, mount, guest OS, then the service.
		bootStart := k.Now()
		uml.Boot(uml.BootRequest{
			Host:     d.host,
			UID:      uid,
			IP:       ip,
			NodeName: req.NodeName,
			Image:    img,
			Profile:  req.GuestProfile,
			Span:     req.Span,
		}, func(report *uml.BootReport) {
			if p.cancelled {
				// Torn down at the very instant boot completed: unwind
				// the fully built guest.
				report.Guest.Stop()
				d.host.FreeDisk(sizeMB)
				abort(fmt.Errorf("soda: prime of %q cancelled", req.NodeName))
				return
			}
			delete(d.pending, req.NodeName)
			bootTime := k.Now().Sub(bootStart)
			d.bootHist.Observe(bootTime.Seconds())
			report.Guest.OnCrash(func(reason string) {
				d.reportCrash(req.ServiceName, req.NodeName, reason)
			})
			info := NodeInfo{
				NodeName:       req.NodeName,
				HostName:       d.host.Spec.Name,
				IP:             ip,
				Port:           port,
				Capacity:       req.Instances,
				UID:            uid,
				Guest:          report.Guest,
				DownloadTime:   downloadTime,
				BootTime:       bootTime,
				RAMDisk:        report.RAMDisk,
				PressureFactor: report.PressureFactor,
			}
			d.nodes[req.NodeName] = &nodeRuntime{info: info, service: req.ServiceName, reservation: reservation, diskMB: sizeMB, proxied: proxied}
			d.Primed++
			d.primedCtr.Inc()
			d.liveNodes.Set(float64(len(d.nodes)))
			d.flog.WithTrace(req.Span.TraceID()).Info("node primed",
				telemetry.L("service", req.ServiceName),
				telemetry.L("node", req.NodeName),
				telemetry.L("download_s", fmt.Sprintf("%.1f", downloadTime.Seconds())))
			if onDone != nil {
				onDone(info)
			}
		}, func(err error) {
			d.host.FreeDisk(sizeMB)
			abort(err)
		})
	}, func(err error) {
		download.Fail(err)
		abort(err)
	})
}

// Teardown removes a node: crash-stop the guest, free the RAM disk and
// image disk space, return the IP to the pool, drop the bridge mapping
// and shaper cap, release the reservation. A node still mid-prime is
// cancelled instead: the in-flight boot is killed and the prime's own
// abort path unwinds the slice, the bridged IP, and the RAM disk.
func (d *Daemon) Teardown(nodeName string) error {
	if d.crashed {
		return fmt.Errorf("soda: %s: daemon is down", d.host.Spec.Name)
	}
	if p, ok := d.pending[nodeName]; ok {
		p.cancelled = true
		// Kill any boot processes; the uml abort hook frees the RAM disk
		// and fails the prime, whose abort path releases the rest.
		d.host.KillUID(p.uid)
		return nil
	}
	rt, ok := d.nodes[nodeName]
	if !ok {
		return fmt.Errorf("soda: %s: no node %q", d.host.Spec.Name, nodeName)
	}
	delete(d.nodes, nodeName)
	rt.info.Guest.Stop()
	d.host.FreeDisk(rt.diskMB)
	if !rt.proxied {
		d.nic.SetShaperCap(rt.info.IP, 0)
		d.nic.RemoveIP(rt.info.IP)
		d.pool.Release(rt.info.IP)
	}
	rt.reservation.Release()
	d.TornDown++
	d.tornDownCtr.Inc()
	d.liveNodes.Set(float64(len(d.nodes)))
	d.flog.Debug("node torn down", telemetry.L("node", nodeName))
	return nil
}

// ResizeNode grows or shrinks an existing node to newInstances machine
// configurations, adjusting the reservation, the shaper cap, and the
// scheduler share. The guest keeps running (§3.4: "adjust the resources
// in the current virtual service nodes").
func (d *Daemon) ResizeNode(nodeName string, m MachineConfig, newInstances int, factor float64) (NodeInfo, error) {
	rt, ok := d.nodes[nodeName]
	if !ok {
		return NodeInfo{}, fmt.Errorf("soda: %s: no node %q", d.host.Spec.Name, nodeName)
	}
	if newInstances <= 0 {
		return NodeInfo{}, fmt.Errorf("soda: resize of %q to %d instances", nodeName, newInstances)
	}
	if factor == 0 {
		factor = SlowdownFactor
	}
	slice := InflatedSlice(m, newInstances, factor)
	if err := rt.reservation.Resize(slice); err != nil {
		return NodeInfo{}, err
	}
	if !rt.proxied {
		d.nic.SetShaperCap(rt.info.IP, slice.BandwidthMbps)
	}
	rt.info.Capacity = newInstances
	return rt.info, nil
}

// TeardownAs is Teardown under the epoch fence: a stale Master's
// teardown is refused instead of executed.
func (d *Daemon) TeardownAs(epoch uint64, nodeName string) error {
	if epoch < d.fenceEpoch {
		return fmt.Errorf("soda: %s: teardown of %q at epoch %d < fence %d: %w",
			d.host.Spec.Name, nodeName, epoch, d.fenceEpoch, ErrStaleEpoch)
	}
	return d.Teardown(nodeName)
}

// ResizeNodeAs is ResizeNode under the epoch fence.
func (d *Daemon) ResizeNodeAs(epoch uint64, nodeName string, m MachineConfig, newInstances int, factor float64) (NodeInfo, error) {
	if epoch < d.fenceEpoch {
		return NodeInfo{}, fmt.Errorf("soda: %s: resize of %q at epoch %d < fence %d: %w",
			d.host.Spec.Name, nodeName, epoch, d.fenceEpoch, ErrStaleEpoch)
	}
	return d.ResizeNode(nodeName, m, newInstances, factor)
}

// FenceEpoch returns the highest leadership epoch this daemon observed.
func (d *Daemon) FenceEpoch() uint64 { return d.fenceEpoch }

// ObserveEpoch raises the daemon's fence to the announced epoch and
// repoints its chunk-plan coordinator at the new leader. Announcements
// at or below the current fence are ignored (at-most-once, monotonic).
func (d *Daemon) ObserveEpoch(epoch uint64, leader *Master) {
	if epoch <= d.fenceEpoch {
		return
	}
	d.fenceEpoch = epoch
	if d.coord != nil && leader != nil {
		d.coord = leader
	}
	// A prime still in flight from a deposed epoch must not survive the
	// fence: left alone it would finish as an orphan holding a slice the
	// new leader believes free — capacity a re-issued resize then cannot
	// place. Cancel it the way a mid-prime teardown does, so its own
	// abort path reclaims the reservation, IP, and disk.
	names := make([]string, 0, len(d.pending))
	for name, p := range d.pending {
		if p.epoch < epoch {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		p := d.pending[name]
		p.cancelled = true
		d.host.KillUID(p.uid)
	}
	d.flog.Info("epoch fence raised", telemetry.L("epoch", fmt.Sprint(epoch)))
}

// ResyncNode is one live node in a resynchronization report.
type ResyncNode struct {
	Service string
	Info    NodeInfo
}

// ResyncChunks is one image's chunk holdings in a resynchronization
// report. Only fully assembled images are reported — a fetch that was
// mid-flight when the old leader died re-announces through the normal
// fetch path instead.
type ResyncChunks struct {
	Image string
	IDs   []uint64
	Total int
	Full  bool
}

// ResyncReport is everything a daemon tells a newly elected Master:
// its live nodes (with guests), the service switches homed here, and
// the image chunks it can serve to peers.
type ResyncReport struct {
	Nodes    []ResyncNode
	Switches []HostedSwitch
	Chunks   []ResyncChunks
}

// resyncReport assembles the daemon's answer to an epoch announcement.
// All slices are name-sorted so same-seed runs report identically.
func (d *Daemon) resyncReport() ResyncReport {
	var rep ResyncReport
	names := make([]string, 0, len(d.nodes))
	for name := range d.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rt := d.nodes[name]
		rep.Nodes = append(rep.Nodes, ResyncNode{Service: rt.service, Info: rt.info})
	}
	svcs := make([]string, 0, len(d.switches))
	for name := range d.switches {
		svcs = append(svcs, name)
	}
	sort.Strings(svcs)
	for _, name := range svcs {
		rep.Switches = append(rep.Switches, *d.switches[name])
	}
	held := d.heldImages()
	imgs := make([]string, 0, len(held))
	for name := range held {
		imgs = append(imgs, name)
	}
	sort.Strings(imgs)
	for _, name := range imgs {
		h := held[name]
		ids := append([]uint64(nil), h.ids...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		rep.Chunks = append(rep.Chunks, ResyncChunks{Image: name, IDs: ids, Total: h.total, Full: h.full})
	}
	return rep
}

// AdoptSwitch records that the named service's switch runs in one of
// this host's nodes. The Master calls it at switch creation and after
// every re-homing, so the daemon can hand the live object to a new
// leader during resynchronization.
func (d *Daemon) AdoptSwitch(service string, sw *svcswitch.Switch, cfg *svcswitch.ConfigFile) {
	if d.switches == nil {
		d.switches = make(map[string]*HostedSwitch)
	}
	d.switches[service] = &HostedSwitch{Service: service, Switch: sw, Config: cfg}
}

// DropSwitch forgets a hosted switch (teardown or re-homing elsewhere).
func (d *Daemon) DropSwitch(service string) { delete(d.switches, service) }

// HostedSwitches returns how many service switches are homed here.
func (d *Daemon) HostedSwitches() int { return len(d.switches) }

// NodeInfoFor returns the daemon's record of a node.
func (d *Daemon) NodeInfoFor(nodeName string) (NodeInfo, bool) {
	rt, ok := d.nodes[nodeName]
	if !ok {
		return NodeInfo{}, false
	}
	return rt.info, true
}

// Crashed reports whether the daemon is crash-stopped.
func (d *Daemon) Crashed() bool { return d.crashed }

// SetCrashSink installs the guest-crash notification hook. The Master's
// failure detector uses it to learn of individual node deaths without
// waiting for a heartbeat deadline.
func (d *Daemon) SetCrashSink(fn func(service, node, reason string)) { d.crashSink = fn }

// reportCrash forwards one guest crash to the sink. Crashes observed
// while the whole daemon is down are suppressed — the host-level
// detector owns that failure.
func (d *Daemon) reportCrash(service, node, reason string) {
	if d.crashed || d.crashSink == nil {
		return
	}
	d.flog.Error("guest crashed",
		telemetry.L("service", service), telemetry.L("node", node),
		telemetry.L("reason", reason))
	d.crashSink(service, node, reason)
}

// Crash crash-stops the daemon and everything on its host: in-flight
// primes are cancelled, every guest dies. Bookkeeping (reservations,
// disk, bridged IPs) is deliberately left in place — a crashed host
// releases nothing — until Restore sweeps it. Idempotent.
func (d *Daemon) Crash() {
	if d.crashed {
		return
	}
	d.crashed = true
	// The switch processes hosted here die with the host; recovery (or a
	// resynchronizing leader) re-homes them on survivors.
	d.switches = make(map[string]*HostedSwitch)
	d.flog.Error("daemon crash-stopped",
		telemetry.L("nodes", fmt.Sprint(len(d.nodes))),
		telemetry.L("pending", fmt.Sprint(len(d.pending))))
	names := make([]string, 0, len(d.pending))
	for name := range d.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := d.pending[name]
		p.cancelled = true
		d.host.KillUID(p.uid)
	}
	names = names[:0]
	for name := range d.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.nodes[name].info.Guest.Crash("host crash")
	}
}

// Restore brings a crash-stopped daemon back: the previous incarnation's
// node bookkeeping is swept (its guests are long dead), after which the
// daemon accepts work and heartbeats again.
func (d *Daemon) Restore() {
	if !d.crashed {
		return
	}
	names := make([]string, 0, len(d.nodes))
	for name := range d.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rt := d.nodes[name]
		delete(d.nodes, name)
		d.host.FreeDisk(rt.diskMB)
		if !rt.proxied {
			d.nic.SetShaperCap(rt.info.IP, 0)
			d.nic.RemoveIP(rt.info.IP)
			d.pool.Release(rt.info.IP)
		}
		rt.reservation.Release()
		d.TornDown++
		d.tornDownCtr.Inc()
	}
	d.liveNodes.Set(float64(len(d.nodes)))
	d.crashed = false
	d.flog.Info("daemon restored", telemetry.L("swept", fmt.Sprint(len(names))))
}
