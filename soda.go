// Package repro is a from-scratch Go reproduction of "SODA: a
// Service-On-Demand Architecture for Application Service Hosting Utility
// Platforms" (Jiang & Xu, HPDC 2003).
//
// The root package is a facade over the internal implementation: it
// re-exports the pieces a downstream user needs to stand up a Hosting
// Utility Platform, request on-demand service creation through the SODA
// Agent, and drive the paper's experiments.
//
//	tb := repro.MustNewTestbed(repro.TestbedConfig{Seed: 1})
//	tb.Agent.RegisterASP("bio-institute", "genome-key")
//	img := repro.WebContentImage("genome-match", 64)
//	tb.Publish(img)
//	svc, err := tb.CreateService("genome-key", repro.ServiceSpec{ ... })
//
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package repro

import (
	"repro/internal/appsvc"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/realswitch"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/uml"
	"repro/internal/workload"
)

// Core SODA types (§2–§4 of the paper).
type (
	// TestbedConfig parameterises a HUP testbed.
	TestbedConfig = hup.Config
	// Testbed is a running HUP with its SODA control plane.
	Testbed = hup.Testbed
	// ServiceSpec is an ASP's service creation request.
	ServiceSpec = soda.ServiceSpec
	// Service is a hosted application service.
	Service = soda.Service
	// MachineConfig is the paper's M tuple (Table 1).
	MachineConfig = soda.MachineConfig
	// Requirement is the paper's <n, M>.
	Requirement = soda.Requirement
	// NodeInfo describes one created virtual service node.
	NodeInfo = soda.NodeInfo
	// HostSpec describes a HUP host's hardware.
	HostSpec = hostos.Spec
	// Image is a packaged application service.
	Image = image.Image
	// IP is an address on the testbed LAN.
	IP = simnet.IP
	// Guest is a booted virtual service node's guest OS.
	Guest = uml.Guest
	// SwitchPolicy is the replaceable request switching policy (§3.4).
	SwitchPolicy = svcswitch.Policy
	// BackendEntry is one row of a service configuration file (Table 3).
	BackendEntry = svcswitch.BackendEntry
	// ConfigFile is a service configuration file.
	ConfigFile = svcswitch.ConfigFile
	// Generator is a siege-style client load generator.
	Generator = workload.Generator
	// WebParams is the web content service's cost model.
	WebParams = appsvc.WebParams
	// WebDeployment instruments a web content service across its nodes.
	WebDeployment = hup.WebDeployment
	// HoneypotDeployment wires the paper's honeypot victim service.
	HoneypotDeployment = hup.HoneypotDeployment
	// LiveProxy is the real-TCP twin of the service switch.
	LiveProxy = realswitch.Proxy
)

// The paper's conservative slow-down inflation (§3.2 footnote 2).
const SlowdownFactor = soda.SlowdownFactor

// Well-known testbed addresses.
const (
	MasterIP = hup.MasterIP
	AgentIP  = hup.AgentIP
	RepoIP   = hup.RepoIP
)

// NewTestbed builds a HUP testbed; the zero config reproduces the
// paper's seattle+tacoma platform.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) { return hup.New(cfg) }

// MustNewTestbed is NewTestbed, panicking on error.
func MustNewTestbed(cfg TestbedConfig) *Testbed { return hup.MustNew(cfg) }

// DefaultM returns Table 1's example machine configuration.
func DefaultM() MachineConfig { return soda.DefaultM() }

// Seattle and Tacoma return the paper's two testbed host specs.
func Seattle() HostSpec { return hostos.Seattle() }

// Tacoma returns the paper's second testbed host spec.
func Tacoma() HostSpec { return hostos.Tacoma() }

// WebContentImage builds the paper's S_I web content service image with
// the given dataset size.
func WebContentImage(name string, datasetMB int) *Image { return hup.WebContentImage(name, datasetMB) }

// HoneypotImage builds the paper's S_II vulnerable victim image.
func HoneypotImage(name string) *Image { return hup.HoneypotImage(name) }

// NewWebDeployment prepares a web content deployment.
func NewWebDeployment(tb *Testbed, params WebParams) *WebDeployment {
	return hup.NewWebDeployment(tb, params)
}

// NewHoneypotDeployment prepares a honeypot deployment.
func NewHoneypotDeployment(tb *Testbed) *HoneypotDeployment { return hup.NewHoneypotDeployment(tb) }

// DefaultWebParams returns the calibrated web service cost model.
func DefaultWebParams(datasetMB int) WebParams { return appsvc.DefaultWebParams(datasetMB) }

// Switching policies (§3.4): the default and the ASP-replaceable ones.
func NewWeightedRoundRobin() SwitchPolicy { return svcswitch.NewWeightedRoundRobin() }

// NewRoundRobin returns a capacity-blind round-robin policy.
func NewRoundRobin() SwitchPolicy { return svcswitch.NewRoundRobin() }

// NewLeastActive returns the least-active-weighted policy.
func NewLeastActive() SwitchPolicy { return svcswitch.NewLeastActive() }

// NewLiveProxy returns the real-TCP service switch for a configuration,
// with the tuned default transport settings.
func NewLiveProxy(cfg *ConfigFile) *LiveProxy { return realswitch.New(cfg) }

// NewConfigFile returns an empty service configuration file.
func NewConfigFile(serviceName string) *ConfigFile { return svcswitch.NewConfigFile(serviceName) }

// ParseConfig reads a service configuration file in Table 3's format.
func ParseConfig(s string) (*ConfigFile, error) { return svcswitch.ParseConfig(s) }
