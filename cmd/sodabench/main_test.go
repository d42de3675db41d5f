package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunWritesReportForOneExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table1.json")
	if code := run([]string{"-exp", "table1", "-out", path}); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		M struct{ CPUMHz, MemoryMB int }
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if rep.M.CPUMHz != 512 || rep.M.MemoryMB != 256 {
		t.Fatalf("report holds M = %+v, want Table 1's 512 MHz / 256 MB", rep.M)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if code := run([]string{"-exp", "nosuch"}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunRefusesReportForAllExperiments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	if code := run([]string{"-exp", "all", "-out", path}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused run still wrote %s (stat: %v)", path, err)
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if code := run([]string{"-chaos"}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}
