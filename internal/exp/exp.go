// Package exp contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (§4.3, §5). Each Run* function
// builds a fresh testbed, executes the published methodology, and returns
// a structured result with a Render method that prints the same rows or
// series the paper reports. The drivers are shared by cmd/sodabench and
// by the repository-level benchmarks in bench_test.go, and EXPERIMENTS.md
// records their output against the paper's numbers.
package exp

import (
	"fmt"

	"repro/internal/hostos"
	"repro/internal/soda"
)

// Result is the common surface of every experiment's outcome.
type Result interface {
	// Title names the table/figure being reproduced.
	Title() string
	// Render prints the reproduction in the paper's row/series format.
	// Its shape[PASS|FAIL] lines are the experiment's only verdict.
	Render() string
}

// defaultM returns the Table 1 machine configuration used by most
// experiments, with disk widened to hold the larger Table 2 images.
func defaultM() soda.MachineConfig {
	m := soda.DefaultM()
	m.DiskMB = 2048
	return m
}

// paperHosts returns the §4 testbed.
func paperHosts() []hostos.Spec {
	return []hostos.Spec{hostos.Seattle(), hostos.Tacoma()}
}

// shapeCheck renders a PASS/FAIL line for a named shape criterion.
func shapeCheck(name string, ok bool) string {
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	return fmt.Sprintf("  shape[%s]: %s", verdict, name)
}
