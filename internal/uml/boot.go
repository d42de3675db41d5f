package uml

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/hostos"
	"repro/internal/image"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// The calibrated constants of the bootstrapping model. They reproduce
// the paper's Table 2 on the paper's two hosts; see EXPERIMENTS.md for
// the derivation.
const (
	// hostOSOverheadMB is RAM the host OS itself occupies and the RAM
	// disk can never use.
	hostOSOverheadMB = 128
	// ramThresholdFrac: if free memory after a RAM-disk mount drops below
	// this fraction of installed RAM, boot suffers paging pressure.
	ramThresholdFrac = 0.25
	// ramMountCyclesPerMB is the CPU cost of populating a RAM disk.
	ramMountCyclesPerMB cycles.Cycles = 10e6
	// swapPenalty scales the boot slow-down under paging pressure:
	// factor = 1 + swapPenalty·(1 − free/threshold).
	swapPenalty = 1.1
	// umlStartCycles is the fixed cost of exec-ing the UML binary itself.
	umlStartCycles cycles.Cycles = 1e8
)

// BootRequest describes one virtual service node to bootstrap.
type BootRequest struct {
	// Host is the HUP host that will run the guest.
	Host *hostos.Host
	// UID is the host userid all the guest's processes run under.
	UID int
	// IP is the node's bridged address.
	IP simnet.IP
	// NodeName labels the node ("web-1").
	NodeName string
	// Image is the downloaded service image, shared with every other
	// node booted from it; Boot only reads it.
	Image *image.Image
	// Profile is the guest-OS configuration shipped in the image — the
	// full set of system services present before tailoring.
	Profile []string
	// Span, when non-nil, is the parent priming span; Boot attaches
	// rootfs.tailor, guest.boot, and service.bootstrap child spans so the
	// Table 2 stage breakdown falls out of the span tree.
	Span *telemetry.Span
}

// BootReport describes a completed bootstrap, the quantity Table 2
// measures.
type BootReport struct {
	Guest *Guest
	// Tailor is the customization pass's outcome.
	Tailor *TailorResult
	// RAMDisk reports whether the root file system fit in RAM.
	RAMDisk bool
	// PressureFactor is the paging slow-down applied to service starts
	// (1 = none).
	PressureFactor float64
	// ServicesStarted is the number of system services the guest booted.
	ServicesStarted int
}

// Boot asynchronously bootstraps a virtual service node: tailor the root
// file system, mount it (RAM disk when it fits, disk otherwise), start
// the UML, start the retained system services in dependency order, then
// exec the application service (§4.3 "first the guest OS, then the
// service"). All work is executed on the host's modelled CPU/disk under
// the node's userid, so co-located load slows boot exactly as it would on
// the real testbed.
//
// onDone receives the report; onErr receives tailoring/packaging errors.
func Boot(req BootRequest, onDone func(*BootReport), onErr func(error)) {
	fail := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	if req.Host == nil || req.Image == nil {
		fail(fmt.Errorf("uml: boot request missing host or image"))
		return
	}
	tailor, err := Tailor(StandardCatalog, req.Image.RootFS, req.Profile, req.Image.SystemServices)
	if err != nil {
		fail(err)
		return
	}

	h := req.Host
	booter := h.Spawn(req.NodeName+"/boot", req.UID)
	report := &BootReport{Tailor: tailor, PressureFactor: 1}

	sizeMB := image.BytesToMB(tailor.RootBytes)
	free := h.MemoryFreeMB() - hostOSOverheadMB
	useRAM := sizeMB <= free
	if useRAM {
		if err := h.UseMemory(sizeMB); err != nil {
			useRAM = false // raced with another boot; fall back to disk
		}
	}
	report.RAMDisk = useRAM
	if useRAM {
		freeAfter := free - sizeMB
		threshold := int(ramThresholdFrac * float64(h.Spec.MemoryMB))
		if freeAfter < threshold {
			report.PressureFactor = 1 + swapPenalty*(1-float64(freeAfter)/float64(threshold))
		}
	}

	// If the booter process is killed before the guest exists — the node
	// was torn down mid-boot, or the host crash-stopped — the in-flight
	// Exec callbacks never fire. Without this hook the RAM reserved for
	// the root disk above would leak and the caller would wait forever.
	// completed flips just before the normal path's own Kill(booter).
	completed := false
	booter.OnKill(func() {
		if completed {
			return
		}
		completed = true
		if useRAM {
			h.FreeMemory(sizeMB)
		}
		fail(fmt.Errorf("uml: boot of %s aborted", req.NodeName))
	})

	// Phase 4+5: start system services sequentially, then the app. The
	// guest.boot span closes when the UML exec completes; everything after
	// that — system services plus the application — is service.bootstrap.
	var bootSpan, bootstrapSpan *telemetry.Span
	startServices := func() {
		services := tailor.Retained
		var startNext func(i int)
		startNext = func(i int) {
			if i >= len(services) {
				report.ServicesStarted = len(services)
				completed = true
				guest := newGuest(req, useRAM, sizeMB)
				report.Guest = guest
				h.Kill(booter)
				bootstrapSpan.Annotate("services", fmt.Sprintf("%d", len(services)))
				bootstrapSpan.EndSpan()
				if onDone != nil {
					onDone(report)
				}
				return
			}
			cost := cycles.Cycles(float64(services[i].StartCycles) * report.PressureFactor)
			booter.Exec(cost, func() { startNext(i + 1) })
		}
		booter.Exec(umlStartCycles, func() {
			bootSpan.EndSpan()
			bootstrapSpan = req.Span.StartChild("service.bootstrap")
			startNext(0)
		})
	}

	// Phase 2+3: mount the root file system, then boot.
	mount := func() {
		bootSpan = req.Span.StartChild("guest.boot",
			telemetry.L("ramdisk", fmt.Sprintf("%v", useRAM)))
		if useRAM {
			booter.Exec(cycles.Cycles(sizeMB)*ramMountCyclesPerMB, startServices)
		} else {
			booter.ReadDiskSequential(tailor.RootBytes, startServices)
		}
	}

	// Phase 1: tailoring.
	tailorSpan := req.Span.StartChild("rootfs.tailor",
		telemetry.L("retained", fmt.Sprintf("%d", len(tailor.Retained))),
		telemetry.L("dropped", fmt.Sprintf("%d", len(tailor.Dropped))))
	booter.Exec(tailor.CPUCost, func() {
		tailorSpan.EndSpan()
		mount()
	})
}
