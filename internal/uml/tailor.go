package uml

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cycles"
	"repro/internal/image"
)

// TailorResult describes one customization pass: which system services
// the guest OS will start, what was pruned from the root file system, and
// what the pass cost.
type TailorResult struct {
	// Retained is the dependency-closed service list in boot order.
	Retained []*SystemService
	// Dropped names the profile services pruned from /etc (sorted).
	Dropped []string
	// ReclaimedBytes is the root-file-system space freed by pruning.
	ReclaimedBytes int64
	// RootBytes is the size of the tailored root file system.
	RootBytes int64
	// CPUCost is the tailoring pass's processing cost (dependency
	// checking plus file-system surgery).
	CPUCost cycles.Cycles
}

// Tailoring cost model: a dependency check per catalog service touched
// and a small per-file cost for the /etc surgery.
const (
	depCheckCycles cycles.Cycles = 20e6
	pruneCycles    cycles.Cycles = 2e6
)

// Tailor customizes a guest root file system for an application service
// (§4.3): it retains only the Linux system services the image requires
// (with their dependency closure), prunes the rest — init scripts and the
// libraries only they needed — and reports the cost. profile lists the
// services present in the image's guest-OS configuration; the image's own
// SystemServices say what the application actually needs.
//
// Tailor only reads rootfs: every node booted from the image shares it.
func Tailor(c *Catalog, rootfs *image.Tree, profile []string, required []string) (*TailorResult, error) {
	if rootfs == nil {
		return nil, fmt.Errorf("uml: tailoring a nil root file system")
	}
	for _, r := range required {
		if !slices.Contains(profile, r) {
			return nil, fmt.Errorf("uml: image requires service %q absent from guest profile", r)
		}
	}
	retained, err := c.Closure(required)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(retained))
	for _, s := range retained {
		keep[s.Name] = true
	}
	res := &TailorResult{Retained: retained, RootBytes: rootfs.SizeBytes()}
	profileClosure, err := c.Closure(profile)
	if err != nil {
		return nil, err
	}
	for _, s := range profileClosure {
		res.CPUCost += depCheckCycles
		if keep[s.Name] {
			continue
		}
		res.Dropped = append(res.Dropped, s.Name)
		// Its init script goes, and so do the libraries only it pulled
		// in: the image builder stores them under /usr/lib/<service>/
		// when present; otherwise the catalog's LibBytes models their
		// weight.
		pruned := rootfs.ListDir("/usr/lib/" + s.Name)
		if len(pruned) == 0 {
			res.ReclaimedBytes += s.LibBytes
		}
		if f, ok := rootfs.Lookup("/etc/init.d/" + s.Name); ok {
			pruned = append(pruned, f)
		}
		for _, f := range pruned {
			res.ReclaimedBytes += f.SizeBytes
			res.RootBytes -= f.SizeBytes
			res.CPUCost += pruneCycles
		}
	}
	sort.Strings(res.Dropped)
	return res, nil
}
