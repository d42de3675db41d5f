package image

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// ErrTransient marks download failures worth retrying: connection drops,
// checksum mismatches, timeouts. Lookup failures (the image simply is
// not published) are permanent and are not wrapped with it.
var ErrTransient = errors.New("transient download failure")

// FaultKind selects how an injected repository fault manifests to one
// download attempt.
type FaultKind int

// Repository fault kinds.
const (
	// FaultNone leaves the attempt alone.
	FaultNone FaultKind = iota
	// FaultError fails the attempt with a transient error.
	FaultError
	// FaultCorrupt delivers the image with a broken checksum.
	FaultCorrupt
	// FaultStall swallows the attempt: neither callback ever fires, so
	// only the downloader's own deadline can rescue it.
	FaultStall
)

// Repository is the ASP-side image store: "The image should be stored in
// a machine owned by the ASP" (§3). The SODA Daemon downloads images from
// it over HTTP/1.1 (§4.3).
type Repository struct {
	// IP is the repository machine's address on the LAN.
	IP simnet.IP

	net    *simnet.Network
	images map[string]*Image

	// manifests caches each published image's chunk manifest, built
	// lazily at DefaultChunkBytes granularity.
	manifests map[string]*Manifest

	// faultHook, when set, is consulted once per download attempt and
	// may fail, corrupt, or stall it. Installed by the chaos injector.
	faultHook func(name string) FaultKind
}

// SetFaultHook installs (or, with nil, removes) the per-attempt fault
// hook.
func (r *Repository) SetFaultHook(fn func(name string) FaultKind) { r.faultHook = fn }

// HTTP/1.1 transfer framing model: one request/response header exchange
// per download (the daemon fetches the packaged image as a single entity
// over a persistent connection), plus a small per-megabyte framing
// overhead (chunked encoding, TCP/IP headers).
const (
	httpHeaderBytes    = 512
	framingPerMB       = 16 * 1024 // ≈1.6% of payload
	handshakeRoundTrip = 1         // extra latency-paced round trips
)

// NewRepository attaches an image repository to the LAN at the given
// address. The hosting NIC must already bridge the address.
func NewRepository(net *simnet.Network, ip simnet.IP) (*Repository, error) {
	if _, ok := net.Lookup(ip); !ok {
		return nil, fmt.Errorf("image: repository address %s not bridged", ip)
	}
	return &Repository{IP: ip, net: net, images: make(map[string]*Image)}, nil
}

// Publish stores an image, replacing any previous version of the same
// name.
func (r *Repository) Publish(im *Image) error {
	if err := im.Validate(); err != nil {
		return err
	}
	r.images[im.Name] = im
	delete(r.manifests, im.Name) // the next ManifestFor rebuilds
	return nil
}

// Lookup returns the named image, or an error listing what is available.
func (r *Repository) Lookup(name string) (*Image, error) {
	im, ok := r.images[name]
	if !ok {
		return nil, fmt.Errorf("image: %q not in repository at %s (have %v)", name, r.IP, r.Names())
	}
	return im, nil
}

// Names returns the published image names, sorted.
func (r *Repository) Names() []string {
	out := make([]string, 0, len(r.images))
	for n := range r.images {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WireBytes returns the on-the-wire size of downloading im: payload plus
// HTTP/1.1 framing.
func WireBytes(im *Image) int64 {
	payload := im.SizeBytes()
	return payload + httpHeaderBytes + int64(im.SizeMB())*framingPerMB
}

// Download transfers the named image to destIP (a SODA Daemon's host
// address). onDone receives the published image itself, shared with
// every other delivery; tailoring only reads it. Download time is
// governed by the LAN model, so it grows linearly with image size, the
// §4.3 in-text result.
func (r *Repository) Download(name string, destIP simnet.IP, onDone func(*Image), onErr func(error)) {
	fail := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	im, err := r.Lookup(name)
	if err != nil {
		fail(err)
		return
	}
	fault := FaultNone
	if r.faultHook != nil {
		fault = r.faultHook(name)
	}
	if fault == FaultStall {
		return // the attempt vanishes; the caller's deadline cleans up
	}
	// Request: headers to the repository; response: the packaged image.
	err = r.net.Transfer(destIP, r.IP, httpHeaderBytes, func() {
		if fault == FaultError {
			fail(fmt.Errorf("image: download of %q from %s reset: %w", name, r.IP, ErrTransient))
			return
		}
		err := r.net.Transfer(r.IP, destIP, WireBytes(im), func() {
			if onDone != nil {
				if fault == FaultCorrupt {
					onDone(im.Corrupted())
				} else {
					onDone(im)
				}
			}
		})
		if err != nil {
			fail(err)
		}
	})
	if err != nil {
		fail(err)
	}
}

// EstimateDownloadTime returns the modelled transfer duration for an
// image at the given bottleneck rate, ignoring contention — used by the
// Master for admission estimates.
func EstimateDownloadTime(im *Image, mbps float64) sim.Duration {
	seconds := float64(WireBytes(im)) / simnet.Mbps(mbps)
	return sim.Duration(seconds * float64(sim.Second))
}
