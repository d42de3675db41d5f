// Package uml models the guest OS of a virtual service node: a User-Mode
// Linux instance running in the unmodified user space of the host OS
// (§4.2). It covers the three phenomena the paper measures:
//
//   - syscall interception by the tracing thread (Table 4) — costs come
//     from internal/cycles;
//   - root-file-system tailoring ("customization", §4.3) — the dependency
//     closure over Linux system services;
//   - bootstrapping (Table 2) — mounting the tailored root (RAM disk when
//     it fits, disk otherwise) and starting the retained services.
package uml

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cycles"
)

// SystemService describes one Linux system service (an /etc/init.d
// script) in the guest-OS catalog.
type SystemService struct {
	// Name is the init-script name ("sshd").
	Name string
	// StartCycles is the CPU cost of starting the service during boot.
	// Values are calibrated so that the four Table 2 profiles reproduce
	// the paper's bootstrap times on the paper's two hosts; see
	// EXPERIMENTS.md for the calibration.
	StartCycles cycles.Cycles
	// Deps are services that must be started first.
	Deps []string
	// LibBytes approximates the shared libraries and config the service
	// pulls into the root file system; tailoring removes these bytes when
	// the service is dropped.
	LibBytes int64
}

// Catalog is a registry of system services with dependency resolution.
// Its writers are unexported: a built catalog is read-only.
type Catalog struct {
	services map[string]*SystemService
}

func newCatalog() *Catalog {
	return &Catalog{services: make(map[string]*SystemService)}
}

// register adds a service. Re-registering a name replaces it.
func (c *Catalog) register(s SystemService) error {
	if s.Name == "" {
		return fmt.Errorf("uml: unnamed system service")
	}
	if s.StartCycles < 0 || s.LibBytes < 0 {
		return fmt.Errorf("uml: service %s with negative cost", s.Name)
	}
	sort.Strings(s.Deps) // Closure visits dependencies in name order
	c.services[s.Name] = &s
	return nil
}

// Lookup returns the named service, or nil.
func (c *Catalog) Lookup(name string) *SystemService { return c.services[name] }

// Names returns all registered service names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.services))
	for n := range c.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered services.
func (c *Catalog) Len() int { return len(c.services) }

// Closure returns the dependency closure of the requested services in
// boot order (dependencies before dependents, ties alphabetical). It
// fails on unknown services and on dependency cycles — both are packaging
// errors the SODA Daemon must surface to the ASP.
func (c *Catalog) Closure(requested []string) ([]*SystemService, error) {
	done := make(map[string]bool)
	var order []*SystemService
	var stack []string // the path to the service being visited
	var visit func(name string) error
	visit = func(name string) error {
		if done[name] {
			return nil
		}
		if slices.Contains(stack, name) {
			return fmt.Errorf("uml: dependency cycle: %v -> %s", stack, name)
		}
		s := c.services[name]
		if s == nil {
			return fmt.Errorf("uml: unknown system service %q (requested via %v)", name, stack)
		}
		stack = append(stack, name)
		for _, d := range s.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		stack = stack[:len(stack)-1]
		done[name] = true
		order = append(order, s)
		return nil
	}
	req := append([]string(nil), requested...)
	sort.Strings(req)
	for _, name := range req {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// TotalStartCycles sums the boot cost of a service list.
func TotalStartCycles(list []*SystemService) cycles.Cycles {
	var total cycles.Cycles
	for _, s := range list {
		total += s.StartCycles
	}
	return total
}

// StandardCatalog is the Red Hat 7.2–era service catalog used by the
// Table 2 profiles. Start costs are in cycles; the heavyweight entries
// (kudzu's hardware probe, sendmail's DNS timeouts, database and NFS
// startup) dominate the full-server profile S_IV exactly as they dominate
// a real rh-7.2 boot.
var StandardCatalog = func() *Catalog {
	c := newCatalog()
	reg := func(name string, gigacycles float64, libMB int64, deps ...string) {
		if err := c.register(SystemService{
			Name:        name,
			StartCycles: cycles.Cycles(gigacycles * 1e9),
			LibBytes:    libMB << 20,
			Deps:        deps,
		}); err != nil {
			panic(err)
		}
	}
	// Core plumbing.
	reg("kernel-init", 1.0, 0)
	reg("keytable", 0.2, 1, "kernel-init")
	reg("random", 0.3, 1, "kernel-init")
	reg("network", 1.2, 2, "kernel-init")
	reg("iptables", 0.3, 1, "network")
	reg("syslog", 0.5, 1, "kernel-init")
	reg("portmap", 0.4, 1, "network")
	// Daemons common to the tailored profiles.
	reg("inetd", 0.9, 2, "network", "syslog")
	reg("sshd", 1.5, 3, "network", "random")
	reg("crond", 0.4, 1, "syslog")
	reg("httpd", 1.0, 4, "network", "syslog")
	// Full-server extras (rh-7.2-server-pristine).
	reg("kudzu", 7.0, 2, "kernel-init")
	reg("apmd", 0.2, 1, "kernel-init")
	reg("rawdevices", 0.2, 0, "kernel-init")
	reg("anacron", 0.2, 1, "crond")
	reg("atd", 0.3, 1, "syslog")
	reg("gpm", 0.3, 1, "kernel-init")
	reg("pcmcia", 1.8, 2, "kernel-init")
	reg("isdn", 1.4, 2, "network")
	reg("identd", 0.4, 1, "network")
	reg("lpd", 2.3, 2, "network", "syslog")
	reg("xfs", 3.2, 8, "kernel-init")
	reg("sendmail", 9.0, 4, "network", "syslog")
	reg("snmpd", 1.6, 2, "network")
	reg("netfs", 0.8, 1, "portmap", "network")
	reg("nfs", 4.5, 2, "portmap", "network")
	reg("nfslock", 0.5, 1, "nfs")
	reg("ypbind", 3.0, 2, "portmap", "network")
	reg("autofs", 2.2, 1, "ypbind")
	reg("mysql", 7.5, 12, "network", "syslog")
	reg("rhnsd", 0.5, 1, "network")
	return c
}()

// Profiles: the guest-OS configurations of the paper's Table 2.

// ProfileTomsrtbt is S_II's root_fs_tomrtbt_1.7.205: the "tom's root
// boot" minimal rescue Linux — the smallest tailored profile.
func ProfileTomsrtbt() []string {
	return []string{"network", "syslog", "inetd", "httpd", "keytable", "random", "iptables"}
}

// ProfileBase is S_I's rootfs_base_1.0: a tailored base configuration
// with remote administration (sshd) and periodic jobs.
func ProfileBase() []string {
	return []string{"network", "syslog", "random", "inetd", "sshd", "crond", "httpd", "keytable", "iptables", "portmap"}
}

// ProfileLFS is S_III's root_fs_lfs_4.0: a Linux-From-Scratch build —
// few services but a large root file system.
func ProfileLFS() []string {
	return []string{"network", "syslog", "sshd", "httpd", "crond", "random"}
}

// ProfileFullServer is S_IV's root_fs.rh-7.2-server.pristine: "a
// full-blown Linux server" — every service in the catalog.
func ProfileFullServer() []string {
	return StandardCatalog.Names()
}
