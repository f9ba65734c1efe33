package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestInfoText smokes the human-readable report: every section header and a
// representative entry from each registry must appear.
func TestInfoText(t *testing.T) {
	t.Parallel()
	out := runOK(t, "info")
	for _, want := range []string{
		"build:", "go version", "limits:", "strategies:", "perturbations",
		"metrics", "max exact processes", "max enumerated", "max split processes", "kron cutoff", "sparse cutoff",
		"sync-every-k", "mc_runs_total", "[runtime]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

// TestInfoJSON pins the machine-readable shape: the structural limits the
// engine routes on, and non-empty strategy and metric catalogs with the
// runtime flag present on at least one metric.
func TestInfoJSON(t *testing.T) {
	t.Parallel()
	out := runOK(t, "info", "-json")
	var rep struct {
		GoVersion string `json:"go_version"`
		NumCPU    int    `json:"num_cpu"`
		Limits    struct {
			MaxExactProcesses int `json:"max_exact_processes"`
			MaxEnumerated     int `json:"max_enumerated_processes"`
			MaxSplit          int `json:"max_split_processes"`
			KronCutoff        int `json:"kron_cutoff"`
			SparseCutoff      int `json:"sparse_cutoff"`
			DefaultBlockSize  int `json:"default_block_size"`
			MaxEveryK         int `json:"max_every_k"`
			MaxAliasCats      int `json:"max_alias_categories"`
		} `json:"limits"`
		Strategies []struct {
			Name string `json:"name"`
		} `json:"strategies"`
		Metrics []struct {
			Name    string `json:"name"`
			Kind    string `json:"kind"`
			Runtime bool   `json:"runtime,omitempty"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("info -json is not valid JSON: %v\n%s", err, out)
	}
	if rep.GoVersion == "" || rep.NumCPU <= 0 {
		t.Errorf("build facts missing: go_version=%q num_cpu=%d", rep.GoVersion, rep.NumCPU)
	}
	if rep.Limits.MaxExactProcesses != 24 || rep.Limits.MaxEnumerated != 7 || rep.Limits.MaxSplit != 10 ||
		rep.Limits.KronCutoff != 1<<17 || rep.Limits.SparseCutoff != 256 ||
		rep.Limits.DefaultBlockSize != 1024 {
		t.Errorf("unexpected limits: %+v", rep.Limits)
	}
	if rep.Limits.MaxEveryK <= 0 || rep.Limits.MaxAliasCats <= 0 {
		t.Errorf("limits not populated: %+v", rep.Limits)
	}
	if len(rep.Strategies) == 0 {
		t.Error("strategy catalog empty")
	}
	if len(rep.Metrics) == 0 {
		t.Error("metric catalog empty")
	}
	runtimeSeen := false
	for _, m := range rep.Metrics {
		if m.Name == "" || m.Kind == "" {
			t.Errorf("metric def missing name or kind: %+v", m)
		}
		runtimeSeen = runtimeSeen || m.Runtime
	}
	if !runtimeSeen {
		t.Error("metric catalog has no runtime-flagged entries")
	}
}
