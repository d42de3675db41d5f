// Quickstart: stand up the paper's two-host HUP, enroll an ASP, publish a
// service image, create the service on demand through the SODA Agent,
// inspect the virtual service nodes and the switch's configuration file,
// then resize and tear the service down.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// 1. The Hosting Utility Platform: seattle + tacoma on a 100 Mbps
	//    LAN, with the SODA Master, Agent, and an ASP image repository.
	tb := repro.MustNewTestbed(repro.TestbedConfig{Seed: 1})

	// 2. The application service provider enrolls with the SODA Agent.
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		log.Fatal(err)
	}

	// 3. The ASP packages its service image (a web content service with a
	//    64 MB dataset) and stores it in its own repository machine.
	img := repro.WebContentImage("genome-match-1.0", 64)
	if err := tb.Publish(img); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published image %q (%d MB, %d files)\n", img.Name, img.SizeMB(), img.RootFS.Len())

	// 4. SODA_service_creation: <3, M> with Table 1's machine config.
	m := repro.DefaultM()
	m.DiskMB = 2048 // room for the image
	wd := repro.NewWebDeployment(tb, repro.DefaultWebParams(64))
	svc, err := tb.CreateService("genome-key", repro.ServiceSpec{
		Name:         "genome-match",
		ImageName:    img.Name,
		Repository:   repro.RepoIP,
		Requirement:  repro.Requirement{N: 3, M: m},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nservice %q is %v with %d machine instances on %d virtual service nodes:\n",
		svc.Spec.Name, svc.State(), svc.TotalCapacity(), len(svc.Nodes))
	for _, n := range svc.Nodes {
		mount := "disk"
		if n.RAMDisk {
			mount = "RAM disk"
		}
		fmt.Printf("  %-16s host=%-8s ip=%-14s capacity=%d  download=%.1fs boot=%.1fs (%s)\n",
			n.NodeName, n.HostName, n.IP, n.Capacity,
			n.DownloadTime.Seconds(), n.BootTime.Seconds(), mount)
	}

	// 5. The service switch's configuration file (paper Table 3).
	fmt.Printf("\nservice configuration file:\n%s", svc.Config.Render())

	// 6. The ps listing inside one guest (paper Figure 3).
	fmt.Println("\nps -ef inside", svc.Nodes[0].NodeName, "(guest OS view):")
	for _, line := range svc.Nodes[0].Guest.PS() {
		fmt.Println(" ", line)
	}

	// 7. SODA_service_resizing: grow to <5, M>.
	resized, err := tb.Resize("genome-key", "genome-match", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter resizing to <5, M>: capacity=%d, config version=%d\n",
		resized.TotalCapacity(), resized.Config.Version())

	// 8. Billing so far, then SODA_service_teardown.
	tb.K.RunFor(60e9) // one virtual minute of hosting
	if acct, ok := tb.Agent.Billing("bio-institute"); ok {
		fmt.Printf("billing: %.0f machine-instance-seconds accrued\n", acct.InstanceSeconds)
	}
	if err := tb.Teardown("genome-key", "genome-match"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("service torn down; HUP resources released")
	avail := tb.Master.CollectAvailability()
	for _, a := range avail {
		fmt.Printf("  %-8s free: %d MHz CPU, %d MB RAM\n", a.HostName, a.Avail.CPUMHz, a.Avail.MemoryMB)
	}
}
