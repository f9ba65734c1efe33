package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// metricsFile runs one rbrepro command with -metrics into a temp file and
// returns (stdout, raw deterministic section, decoded full report).
func metricsFile(t *testing.T, args ...string) (string, []byte, map[string]json.RawMessage) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	out := runOK(t, append(args, "-metrics", path)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics report missing: %v", err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v\n%s", err, data)
	}
	det, ok := rep["deterministic"]
	if !ok {
		t.Fatalf("metrics report has no deterministic section:\n%s", data)
	}
	return out, det, rep
}

// TestMetricsDeterministicSectionIsWorkerInvariant is the CLI determinism
// regression of the observability layer: with -metrics, the report's
// deterministic section must be byte-identical across worker counts and
// across same-seed reruns, while stdout stays byte-identical to a
// metrics-off run. The chaos input pins the per-scenario memo of chain
// answers: a memo whose hits depended on scheduling, or outlived one sweep
// (the first run below is the process's first), would move the solve
// counters. Not parallel: the -metrics flag installs the global metrics
// registry for the duration of each Run call.
func TestMetricsDeterministicSectionIsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario family and a chaos sweep four times each")
	}
	for _, base := range [][]string{
		{"scenario", "-family", "pipeline", "-quick"},
		{"chaos", "-corpus", "12", "-draws", "8"},
	} {
		t.Run(base[0], func(t *testing.T) {
			out1, det1, _ := metricsFile(t, append(base, "-workers", "1")...)
			off := runOK(t, base...)
			out4, det4, _ := metricsFile(t, append(base, "-workers", "4")...)
			out16, det16, _ := metricsFile(t, append(base, "-workers", "16")...)
			outR, detR, _ := metricsFile(t, append(base, "-workers", "4")...)

			if out1 != off {
				t.Error("-metrics changed stdout against the metrics-off run")
			}
			if out1 != out4 || out4 != out16 || out16 != outR {
				t.Error("stdout differs across -workers values under -metrics")
			}
			if string(det1) != string(det4) || string(det4) != string(det16) {
				t.Errorf("deterministic metrics differ across worker counts:\n-workers 1: %s\n-workers 16: %s", det1, det16)
			}
			if string(det4) != string(detR) {
				t.Errorf("deterministic metrics differ across same-seed reruns:\nfirst: %s\nrerun: %s", det4, detR)
			}
		})
	}
}

// TestMetricsReportShape checks the report document itself: schema version,
// populated deterministic counters for the exercised layers, and the
// quarantined runtime section carrying host facts and the command span.
func TestMetricsReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario family")
	}
	_, det, rep := metricsFile(t, "scenario", "-family", "pipeline", "-quick")
	var detSec struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(det, &detSec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"mc_runs_total", "mc_blocks_total", "mc_map_items_total",
		"sim_async_events_total", "scenario_cells_total",
		"scenario_checks_total", "strategy_crosschecks_total",
	} {
		if detSec.Counters[name] <= 0 {
			t.Errorf("deterministic counter %q = %d, want > 0 (counters: %v)", name, detSec.Counters[name], detSec.Counters)
		}
	}
	if detSec.Counters["scenario_check_failures_total"] != 0 {
		t.Errorf("clean family recorded %d check failures", detSec.Counters["scenario_check_failures_total"])
	}
	var rt struct {
		WallSeconds float64 `json:"wall_seconds"`
		GoVersion   string  `json:"go_version"`
		NumCPU      int     `json:"num_cpu"`
		Spans       []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children,omitempty"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rep["runtime"], &rt); err != nil {
		t.Fatal(err)
	}
	if rt.GoVersion == "" || rt.NumCPU <= 0 || rt.WallSeconds <= 0 {
		t.Errorf("runtime host facts missing: %+v", rt)
	}
	found := false
	for _, sp := range rt.Spans {
		if sp.Name == "cmd" {
			for _, c := range sp.Children {
				if c.Name == "scenario" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("runtime spans missing cmd/scenario: %+v", rt.Spans)
	}
}

// TestMetricsBadPath: an unwritable -metrics path must fail the run like the
// profiling flags do, not be silently dropped.
func TestMetricsBadPath(t *testing.T) {
	var out strings.Builder
	err := Run([]string{"domino", "-quick", "-metrics", "/no/such/dir/metrics.json"}, &out)
	if err == nil {
		t.Fatal("unwritable -metrics path was accepted")
	}
	if errors.Is(err, errUsage) {
		t.Fatal("-metrics I/O failure reported as a usage error")
	}
}
