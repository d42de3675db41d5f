package hup

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hostos"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/uml"
)

func TestNewDefaultIsPaperTestbed(t *testing.T) {
	tb, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Hosts) != 2 || tb.Hosts[0].Spec.Name != "seattle" || tb.Hosts[1].Spec.Name != "tacoma" {
		t.Fatalf("hosts = %v", tb.Hosts)
	}
	if len(tb.Daemons) != 2 || tb.Master == nil || tb.Agent == nil || tb.Repo == nil {
		t.Fatal("control plane incomplete")
	}
	// Control-plane addresses are bridged.
	for _, ip := range []simnet.IP{MasterIP, AgentIP, RepoIP} {
		if _, ok := tb.Net.Lookup(ip); !ok {
			t.Fatalf("%s not bridged", ip)
		}
	}
	// Host addresses are bridged too.
	for i := range tb.Hosts {
		ip := simnet.IP(fmt.Sprintf("128.10.9.%d", 10+i))
		if _, ok := tb.Net.Lookup(ip); !ok {
			t.Fatalf("host IP %s not bridged", ip)
		}
	}
}

func TestAddClientGivesRoutableAddresses(t *testing.T) {
	tb, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := tb.AddClient()
	b := tb.AddClient()
	if a == b {
		t.Fatalf("duplicate client IPs %s", a)
	}
	delivered := false
	if err := tb.Net.Transfer(a, b, 100, func() { delivered = true }); err != nil {
		t.Fatal(err)
	}
	tb.K.Run()
	if !delivered {
		t.Fatal("client-to-client transfer failed")
	}
}

func TestCustomHostsAndScheduler(t *testing.T) {
	tb, err := New(Config{
		Hosts: []hostos.Spec{hostos.Tacoma()},
		Seed:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Hosts) != 1 || tb.Hosts[0].Spec.Name != "tacoma" {
		t.Fatal("custom host list ignored")
	}
	// Default scheduler is proportional.
	if !strings.Contains(tb.Hosts[0].Scheduler().Name(), "proportional") {
		t.Fatalf("default scheduler = %s", tb.Hosts[0].Scheduler().Name())
	}
}

func TestTable2CasesMatchPaperRows(t *testing.T) {
	cases := Table2Cases()
	if len(cases) != 4 {
		t.Fatalf("cases = %d", len(cases))
	}
	wantSizes := map[string]int{"S_I": 29, "S_II": 15, "S_III": 400, "S_IV": 253}
	for _, c := range cases {
		img := c.Image("x")
		if got := img.SizeMB(); got != wantSizes[c.Label] {
			t.Errorf("%s image = %dMB, want %d", c.Label, got, wantSizes[c.Label])
		}
		if c.PaperSeattleSec <= 0 || c.PaperTacomaSec <= c.PaperSeattleSec {
			t.Errorf("%s paper values wrong: %v/%v", c.Label, c.PaperSeattleSec, c.PaperTacomaSec)
		}
	}
}

func TestImagesValidateAndCarryProfiles(t *testing.T) {
	web := WebContentImage("w", 16)
	if err := web.Validate(); err != nil {
		t.Fatal(err)
	}
	if web.SizeMB() != 29+16 {
		t.Fatalf("web image = %dMB", web.SizeMB())
	}
	if len(web.RootFS.ListDir("/var/www/data")) != 16*32 {
		t.Fatal("dataset file count wrong")
	}
	hp := HoneypotImage("h")
	if !strings.Contains(hp.ServiceCommand, "ghttpd") {
		t.Fatalf("honeypot serves %s", hp.ServiceCommand)
	}
	if len(FullServerImage("f").SystemServices) != len(uml.ProfileFullServer()) {
		t.Fatal("full server profile incomplete")
	}
}

func TestSyncCreateHelpersSurfaceErrors(t *testing.T) {
	tb, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("a", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateService("k", soda.ServiceSpec{Name: "bad"}); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := tb.Teardown("k", "ghost"); err == nil {
		t.Fatal("teardown of unknown service accepted")
	}
	if _, err := tb.Resize("k", "ghost", 2); err == nil {
		t.Fatal("resize of unknown service accepted")
	}
}

// dottedQuad parses a valid IPv4 address in dotted-quad form.
func dottedQuad(t *testing.T, ip simnet.IP) [4]int {
	t.Helper()
	var q [4]int
	var rest string
	if n, _ := fmt.Sscanf(string(ip)+" end", "%d.%d.%d.%d %s", &q[0], &q[1], &q[2], &q[3], &rest); n != 5 {
		t.Fatalf("%q is not a dotted quad", ip)
	}
	for _, o := range q {
		if o < 0 || o > 255 {
			t.Fatalf("%q has an octet out of range", ip)
		}
	}
	return q
}

func TestLargeTestbedAddressesAreDisjoint(t *testing.T) {
	const n = 300
	specs := make([]hostos.Spec, n)
	for i := range specs {
		specs[i] = hostos.Tacoma()
		specs[i].Name = fmt.Sprintf("h%03d", i)
	}
	tb, err := New(Config{Hosts: specs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[[4]int]string{} // every address any host or pool may use
	claim := func(ip simnet.IP, who string) {
		q := dottedQuad(t, ip)
		if prev, dup := owner[q]; dup {
			t.Fatalf("%s claimed by both %s and %s", ip, prev, who)
		}
		owner[q] = who
	}
	for _, ip := range []simnet.IP{MasterIP, AgentIP, StandbyIP, RepoIP} {
		claim(ip, "control plane")
	}
	for i := range tb.Hosts {
		hostIP, pool, err := hostAddressing(i)
		if err != nil {
			t.Fatal(err)
		}
		if nic, ok := tb.Net.Lookup(hostIP); !ok || nic.HostName != specs[i].Name {
			t.Fatalf("host %d address %s not bridged to its NIC", i, hostIP)
		}
		claim(hostIP, specs[i].Name)
		first, _ := pool.Allocate()
		claim(first, specs[i].Name+" pool")
		for pool.Free() > 0 {
			ip, err := pool.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			claim(ip, specs[i].Name+" pool")
		}
		// The first 90 hosts keep their historical addresses and pools,
		// so every digest recorded on smaller testbeds holds.
		if i < 90 {
			wantPool := fmt.Sprintf("128.10.%d.100", 40+i)
			if i < 7 {
				wantPool = fmt.Sprintf("128.10.9.%d", 100+20*i)
			}
			if want := fmt.Sprintf("128.10.9.%d", 10+i); hostIP != simnet.IP(want) || first != simnet.IP(wantPool) {
				t.Fatalf("host %d address %s pool from %s, want %s and %s", i, hostIP, first, want, wantPool)
			}
		}
	}
	// The last host the plan supports still gets a valid address.
	last, _, err := hostAddressing(maxHosts - 1)
	if err != nil {
		t.Fatal(err)
	}
	dottedQuad(t, last)
	tooMany := make([]hostos.Spec, maxHosts+1)
	for i := range tooMany {
		tooMany[i] = hostos.Tacoma()
		tooMany[i].Name = fmt.Sprintf("h%d", i)
	}
	if _, err := New(Config{Hosts: tooMany}); err == nil || !strings.Contains(err.Error(), "address plan") {
		t.Fatalf("testbed beyond the address plan: err = %v", err)
	}
}
