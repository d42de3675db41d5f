package soda

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/accounting"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Agent is the middleware-level interface between ASPs and the HUP
// (§3.1): it authenticates service creation/tear-down/resizing calls,
// forwards them to the Master, returns node information to the ASP, and
// performs "other administrative tasks such as billing" (§2.2).
type Agent struct {
	// IP is the Agent machine's address.
	IP simnet.IP

	k      *sim.Kernel
	net    *simnet.Network
	master *Master

	// mu guards the ASP table, billing accounts, and the auth counters:
	// the simulation mutates them on its goroutine while HTTP servers
	// and consoles read bills concurrently.
	mu      sync.Mutex
	asps    map[string]string // credential → ASP name
	billing map[string]*BillingAccount

	// Authenticated and Denied count API calls by outcome. Guarded by mu;
	// read them only after the simulation settles (tests) or via Stats.
	Authenticated, Denied int
}

// BillingAccount accumulates an ASP's charges. Instance-seconds (one M
// of capacity held for one second of virtual time) remain from the flat
// tariff; the resource-weighted charges are fed by the accounting
// subsystem's meters: CPU in MHz-seconds of cycles actually delivered,
// memory and disk in GB-hours of reservation, network in GB moved
// through the traffic shaper.
type BillingAccount struct {
	// ASP names the account owner.
	ASP string `json:"asp"`
	// InstanceSeconds is accumulated flat-rate usage.
	InstanceSeconds float64 `json:"instance_seconds"`
	// CPUMHzSeconds bills cycles the host scheduler delivered.
	CPUMHzSeconds float64 `json:"cpu_mhz_seconds"`
	// MemoryGBHours bills the memory reservation over time.
	MemoryGBHours float64 `json:"memory_gb_hours"`
	// DiskGBHours bills the disk reservation over time.
	DiskGBHours float64 `json:"disk_gb_hours"`
	// NetworkGB bills bytes the service's nodes put on the wire.
	NetworkGB float64 `json:"network_gb"`
	// open tracks running services, sorted by name, so every sum over
	// them runs in one order.
	open []usageSpan
}

type usageSpan struct {
	service  string
	capacity int
	since    sim.Time
}

// span finds a service's open span: its index, or where it would be
// inserted.
func (b *BillingAccount) span(service string) (int, bool) {
	return slices.BinarySearchFunc(b.open, service, func(s usageSpan, k string) int { return strings.Compare(s.service, k) })
}

// addUsage folds metered resource totals into the account's charges.
func (b *BillingAccount) addUsage(u accounting.Usage) {
	b.CPUMHzSeconds += u.CPUMHzSeconds
	b.MemoryGBHours += u.MemoryGBHours()
	b.DiskGBHours += u.DiskGBHours()
	b.NetworkGB += u.NetworkGB()
}

// NewAgent creates the HUP's front door.
func NewAgent(net *simnet.Network, ip simnet.IP, master *Master) (*Agent, error) {
	if _, ok := net.Lookup(ip); !ok {
		return nil, fmt.Errorf("soda: agent address %s not bridged", ip)
	}
	if master == nil {
		return nil, fmt.Errorf("soda: agent without a master")
	}
	return &Agent{
		IP:      ip,
		k:       net.Kernel(),
		net:     net,
		master:  master,
		asps:    make(map[string]string),
		billing: make(map[string]*BillingAccount),
	}, nil
}

// RegisterASP enrolls an application service provider with a credential.
func (a *Agent) RegisterASP(name, credential string) error {
	if name == "" || credential == "" {
		return fmt.Errorf("soda: ASP registration needs a name and credential")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if owner, taken := a.asps[credential]; taken && owner != name {
		return fmt.Errorf("soda: credential already issued to %s", owner)
	}
	a.asps[credential] = name
	if a.billing[name] == nil {
		a.billing[name] = &BillingAccount{ASP: name}
	}
	return nil
}

// authenticate resolves a credential to an ASP, counting the outcome.
func (a *Agent) authenticate(credential string) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	asp, ok := a.asps[credential]
	if !ok {
		a.Denied++
		return "", fmt.Errorf("soda: authentication failed")
	}
	a.Authenticated++
	return asp, nil
}

// openUsage opens (or re-opens, on resize) a service's usage span,
// settling accrued instance-seconds first.
func (a *Agent) openUsage(asp, service string, capacity int) {
	now := a.k.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	acct := a.billing[asp]
	if acct == nil {
		return
	}
	acct.settle(now)
	sp := usageSpan{service: service, capacity: capacity, since: now}
	if i, ok := acct.span(service); ok {
		acct.open[i] = sp
	} else {
		acct.open = slices.Insert(acct.open, i, sp)
	}
}

// closeUsage settles and removes a service's usage span, folding its
// final metered resource totals into the account.
func (a *Agent) closeUsage(asp, service string, final accounting.Usage) {
	now := a.k.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	acct := a.billing[asp]
	if acct == nil {
		return
	}
	acct.settle(now)
	if i, ok := acct.span(service); ok {
		acct.open = slices.Delete(acct.open, i, i+1)
	}
	acct.addUsage(final)
}

// Billing returns a snapshot of the ASP's account with usage settled to
// now. Resource-weighted charges cover both torn-down services
// (settled into the account) and still-running ones (read live from the
// accounting meters), so the bill is always current.
func (a *Agent) Billing(asp string) (*BillingAccount, bool) {
	now := a.k.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	acct, ok := a.billing[asp]
	if !ok {
		return nil, false
	}
	acct.settle(now)
	snap := &BillingAccount{
		ASP:             acct.ASP,
		InstanceSeconds: acct.InstanceSeconds,
		CPUMHzSeconds:   acct.CPUMHzSeconds,
		MemoryGBHours:   acct.MemoryGBHours,
		DiskGBHours:     acct.DiskGBHours,
		NetworkGB:       acct.NetworkGB,
		open:            slices.Clone(acct.open),
	}
	for _, sp := range acct.open {
		if u, live := a.master.currentLeader().UsageTotals(sp.service); live {
			snap.addUsage(u)
		}
	}
	return snap, true
}

// Accounts returns the enrolled ASP names, sorted.
func (a *Agent) Accounts() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.billing))
	for n := range a.billing {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ownsService reports whether the ASP has the service open.
func (a *Agent) ownsService(asp, service string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	acct := a.billing[asp]
	if acct == nil {
		return false
	}
	_, ok := acct.span(service)
	return ok
}

// settle folds every open span's instance-seconds up to now into the
// account, in service-name order.
func (b *BillingAccount) settle(now sim.Time) {
	for i := range b.open {
		sp := &b.open[i]
		b.InstanceSeconds += float64(sp.capacity) * now.Sub(sp.since).Seconds()
		sp.since = now
	}
}

// OpenServices lists the account's running services, sorted.
func (b *BillingAccount) OpenServices() []string {
	out := make([]string, 0, len(b.open))
	for _, sp := range b.open {
		out = append(out, sp.service)
	}
	return out
}

// ServiceCreation is SODA_service_creation (§4.1): the ASP specifies the
// service name, image location, and resource requirement. The agent
// authenticates, passes the request to the Master, opens billing, and
// replies with the created nodes' information.
func (a *Agent) ServiceCreation(credential string, spec ServiceSpec, onDone func(*Service), onErr func(error)) {
	asp, err := a.authenticate(credential)
	if err != nil {
		if onErr != nil {
			onErr(err)
		}
		return
	}
	// The request crosses the LAN to whichever Master currently leads
	// (after a failover the standby holds the service table).
	lead := a.master.currentLeader()
	err = a.net.Transfer(a.IP, lead.IP, 2048, func() {
		lead.CreateService(spec, func(svc *Service) {
			a.openUsage(asp, spec.Name, svc.TotalCapacity())
			if onDone != nil {
				onDone(svc)
			}
		}, onErr)
	})
	if err != nil && onErr != nil {
		onErr(err)
	}
}

// ServiceTeardown is SODA_service_teardown (§4.1).
func (a *Agent) ServiceTeardown(credential, serviceName string, onDone func(), onErr func(error)) {
	asp, err := a.authenticate(credential)
	if err != nil {
		if onErr != nil {
			onErr(err)
		}
		return
	}
	lead := a.master.currentLeader()
	err = a.net.Transfer(a.IP, lead.IP, 512, func() {
		if err := lead.TeardownService(serviceName); err != nil {
			if onErr != nil {
				onErr(err)
			}
			return
		}
		// The teardown unwatched the meters; fold the final metered
		// totals into the owner's bill.
		final, _ := lead.SettledUsage(serviceName)
		a.closeUsage(asp, serviceName, final)
		if onDone != nil {
			onDone()
		}
	})
	if err != nil && onErr != nil {
		onErr(err)
	}
}

// ServiceResizing is SODA_service_resizing (§4.1): resize to a new
// requirement <n_new, M>.
func (a *Agent) ServiceResizing(credential, serviceName string, newN int, onDone func(*Service), onErr func(error)) {
	asp, err := a.authenticate(credential)
	if err != nil {
		if onErr != nil {
			onErr(err)
		}
		return
	}
	lead := a.master.currentLeader()
	err = a.net.Transfer(a.IP, lead.IP, 512, func() {
		lead.ResizeService(serviceName, newN, func(svc *Service) {
			a.openUsage(asp, serviceName, svc.TotalCapacity())
			if onDone != nil {
				onDone(svc)
			}
		}, onErr)
	})
	if err != nil && onErr != nil {
		onErr(err)
	}
}
