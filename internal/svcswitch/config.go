// Package svcswitch implements the per-service request switch of §3.4:
// an application-level entity, co-located in one of the service's virtual
// service nodes, that accepts client requests and directs each to a
// backend node according to a replaceable switching policy. The switch's
// state is a service configuration file created and maintained by the
// SODA Master (Table 3).
package svcswitch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
)

// BackendEntry is one row of the service configuration file: a virtual
// service node's address, port, and relative capacity (the number of
// machine instances M mapped to the node, §4.3). Component is the
// partitionable-services extension (§3.5 lists it as future work): when
// non-empty, the node serves only requests for that service component,
// and the switch routes by component.
type BackendEntry struct {
	IP        simnet.IP
	Port      int
	Capacity  int
	Component string
}

// Validate reports the first problem with the entry, or nil.
func (e BackendEntry) Validate() error {
	switch {
	case e.IP == "":
		return fmt.Errorf("svcswitch: entry without IP")
	case e.Port <= 0 || e.Port > 65535:
		return fmt.Errorf("svcswitch: entry %s with bad port %d", e.IP, e.Port)
	case e.Capacity <= 0:
		return fmt.Errorf("svcswitch: entry %s with non-positive capacity %d", e.IP, e.Capacity)
	}
	return nil
}

// Addr renders "ip:port".
func (e BackendEntry) Addr() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }

// ConfigFile is the service configuration file. Every mutation bumps the
// version so the switch can notice resizing (§3.4: "the service
// configuration file will be updated by the SODA Master to reflect the
// changes").
//
// A ConfigFile is safe for concurrent use: the SODA Master resizes it
// while the live realswitch.Proxy serves requests off it from many
// goroutines. The entry slice is copy-on-write — mutators install a
// fresh slice under the lock and readers of Snapshot share the immutable
// current one — and the version is readable lock-free, so the switch
// data plane's per-request freshness check is a single atomic load.
type ConfigFile struct {
	// ServiceName identifies the service the file belongs to. It is set
	// at construction and never mutated afterwards.
	ServiceName string

	mu      sync.RWMutex
	version atomic.Int64
	entries []BackendEntry // immutable once installed; replaced wholesale
	slo     SLO            // service-level objective; zero = none
	// autoscale is the rendered "# autoscale" stanza — the scaling
	// policy's key=value form. The switch stores it as an opaque string
	// (the policy type lives in internal/autoscale; the config file must
	// not depend on it); empty means no autoscaling.
	autoscale string
}

// NewConfigFile returns an empty configuration for a service.
func NewConfigFile(serviceName string) *ConfigFile {
	return &ConfigFile{ServiceName: serviceName}
}

// Version returns the update count. It is a lock-free atomic read — the
// data plane calls it per request to detect resizing.
func (c *ConfigFile) Version() int { return int(c.version.Load()) }

// Snapshot returns the version and the current backend rows as one
// consistent view. The returned slice is shared and immutable: callers
// must not modify it. This is the zero-copy read the switch data planes
// build their route tables from.
func (c *ConfigFile) Snapshot() (int, []BackendEntry) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int(c.version.Load()), c.entries
}

// Entries returns a copy of the backend rows.
func (c *ConfigFile) Entries() []BackendEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]BackendEntry(nil), c.entries...)
}

// TotalCapacity sums the capacities — the n of the service's <n, M>.
func (c *ConfigFile) TotalCapacity() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int
	for _, e := range c.entries {
		total += e.Capacity
	}
	return total
}

// SetEntries replaces the backend rows atomically, validating each.
func (c *ConfigFile) SetEntries(entries []BackendEntry) error {
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			return err
		}
		if seen[e.Addr()] {
			return fmt.Errorf("svcswitch: duplicate backend %s", e.Addr())
		}
		seen[e.Addr()] = true
	}
	fresh := append([]BackendEntry(nil), entries...)
	c.mu.Lock()
	c.entries = fresh
	c.version.Add(1)
	c.mu.Unlock()
	return nil
}

// AddEntry appends one backend row (resizing up).
func (c *ConfigFile) AddEntry(e BackendEntry) error {
	return c.SetEntries(append(c.Entries(), e))
}

// RemoveEntry deletes the row with the given address (resizing down),
// reporting whether it existed.
func (c *ConfigFile) RemoveEntry(ip simnet.IP, port int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := make([]BackendEntry, 0, len(c.entries))
	found := false
	for _, e := range c.entries {
		if e.IP == ip && e.Port == port {
			found = true
			continue
		}
		kept = append(kept, e)
	}
	if found {
		c.entries = kept
		c.version.Add(1)
	}
	return found
}

// Render produces the on-disk format of Table 3:
//
//	Directive  IP address    Port number  Capacity
//	BackEnd    128.10.9.125  8080         2
//	BackEnd    128.10.9.126  8080         1
//
// Component-tagged rows (the partitionable extension) carry a fifth
// field: "BackEnd 128.10.9.125 8080 2 checkout".
func (c *ConfigFile) Render() string {
	version, entries := c.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# service %s (version %d)\n", c.ServiceName, version)
	// The SLO rides along as a comment so the Table 3 directive shape is
	// untouched for services without one.
	if slo := c.SLO(); slo.Enabled() {
		fmt.Fprintf(&b, "# slo %s\n", slo)
	}
	if as := c.Autoscale(); as != "" {
		fmt.Fprintf(&b, "# autoscale %s\n", as)
	}
	for _, e := range entries {
		if e.Component != "" {
			fmt.Fprintf(&b, "BackEnd %s %d %d %s\n", e.IP, e.Port, e.Capacity, e.Component)
		} else {
			fmt.Fprintf(&b, "BackEnd %s %d %d\n", e.IP, e.Port, e.Capacity)
		}
	}
	return b.String()
}

// SetAutoscale records the service's scaling-policy stanza (the
// rendered key=value form; empty clears it). The version bumps so
// consumers of the file notice the policy change.
func (c *ConfigFile) SetAutoscale(stanza string) {
	c.mu.Lock()
	c.autoscale = stanza
	c.version.Add(1)
	c.mu.Unlock()
}

// Autoscale returns the scaling-policy stanza ("" = no autoscaling).
func (c *ConfigFile) Autoscale() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.autoscale
}

// Components returns the distinct component names in the file, sorted,
// with "" first when untagged rows exist.
func (c *ConfigFile) Components() []string {
	_, entries := c.Snapshot()
	seen := make(map[string]bool)
	for _, e := range entries {
		seen[e.Component] = true
	}
	out := make([]string, 0, len(seen))
	for comp := range seen {
		out = append(out, comp)
	}
	sort.Strings(out)
	return out
}

// EntriesFor returns the rows serving one component.
func (c *ConfigFile) EntriesFor(component string) []BackendEntry {
	_, entries := c.Snapshot()
	var out []BackendEntry
	for _, e := range entries {
		if e.Component == component {
			out = append(out, e)
		}
	}
	return out
}

// ParseConfig reads the Render format back. Lines starting with '#' are
// comments; the only directive is BackEnd.
func ParseConfig(s string) (*ConfigFile, error) {
	c := NewConfigFile("")
	var entries []BackendEntry
	for lineNo, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if name, ok := parseHeader(line); ok {
				c.ServiceName = name
			}
			if stanza, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(line, "#")), "autoscale "); ok {
				c.autoscale = strings.TrimSpace(stanza)
			}
			continue
		}
		fields := strings.Fields(line)
		if (len(fields) != 4 && len(fields) != 5) || fields[0] != "BackEnd" {
			return nil, fmt.Errorf("svcswitch: line %d: bad directive %q", lineNo+1, line)
		}
		port, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("svcswitch: line %d: bad port %q", lineNo+1, fields[2])
		}
		capacity, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("svcswitch: line %d: bad capacity %q", lineNo+1, fields[3])
		}
		entry := BackendEntry{IP: simnet.IP(fields[1]), Port: port, Capacity: capacity}
		if len(fields) == 5 {
			entry.Component = fields[4]
		}
		entries = append(entries, entry)
	}
	if err := c.SetEntries(entries); err != nil {
		return nil, err
	}
	c.version.Store(1)
	return c, nil
}

func parseHeader(line string) (string, bool) {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	if len(fields) >= 2 && fields[0] == "service" {
		return fields[1], true
	}
	return "", false
}
