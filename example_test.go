package repro_test

import (
	"fmt"

	"repro"
)

// Example reproduces the paper's opening scenario (§1): a bioinformatics
// institute outsources the hosting of a genome-matching service to a
// HUP with one SODA API call, then inspects what was created. Output is
// deterministic: the simulation is seed-driven.
func Example() {
	tb := repro.MustNewTestbed(repro.TestbedConfig{Seed: 1})
	tb.Agent.RegisterASP("bio-institute", "genome-key")

	img := repro.WebContentImage("genome-match-1.0", 16)
	tb.Publish(img)

	m := repro.DefaultM()
	m.DiskMB = 2048
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
		fmt.Println("creation failed:", err)
		return
	}
	fmt.Printf("service %s is %v with capacity %d\n",
		svc.Spec.Name, svc.State(), svc.TotalCapacity())
	for _, n := range svc.Nodes {
		fmt.Printf("  node on %s (capacity %d)\n", n.HostName, n.Capacity)
	}
	fmt.Print(svc.Config.Render())
	// Output:
	// service genome-match is active with capacity 3
	//   node on seattle (capacity 2)
	//   node on tacoma (capacity 1)
	// # service genome-match (version 1)
	// BackEnd 128.10.9.100 8080 2
	// BackEnd 128.10.9.120 8080 1
}
