package exp

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestAutoscaleExperimentShape(t *testing.T) {
	res, err := RunAutoscale(1, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Render(); strings.Contains(out, "FAIL") {
		t.Fatalf("shape check failed:\n%s", out)
	}
}
