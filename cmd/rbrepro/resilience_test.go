package main

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestTimeoutAbortsAsDeadline pins the -timeout seam: an expired budget
// surfaces as a context.DeadlineExceeded-classified error — the one main
// maps to exit code 3 — not as a generic failure or a hang.
func TestTimeoutAbortsAsDeadline(t *testing.T) {
	for _, args := range [][]string{
		{"scenario", "-family", "uniform", "-timeout", "1ns"},
		{"plan", "-timeout", "1ns"},
	} {
		var out strings.Builder
		err := Run(args, &out)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timed-out %s returned %v, want DeadlineExceeded", args[0], err)
		}
	}
}

// TestCancelledContextAborts pins the Ctrl-C seam: RunContext under a dead
// context returns a context.Canceled-classified error (exit code 3).
func TestCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := RunContext(ctx, []string{"xval", "-quick"}, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want Canceled", err)
	}
}

// TestSolverFaultDegradesScenarioRun is the CLI end of the graceful-
// degradation contract: under -solver-fault the scenario engine must print a
// complete report with confidence labels and return the errDegraded marker
// (exit code 4), with every cross-check still clean.
func TestSolverFaultDegradesScenarioRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick scenario family")
	}
	var out strings.Builder
	err := Run([]string{"scenario", "-family", "uniform", "-quick", "-solver-fault", "1"}, &out)
	if !errors.Is(err, errDegraded) {
		t.Fatalf("forced-fault run returned %v, want errDegraded\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"confidence: fallback", "cross-check clean", "winner:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("degraded report missing %q", want)
		}
	}
}

// TestSolverFaultDegradesChaosSweep: the chaos stability sweep under a
// solver-fault stack completes with a stable verdict and reports its
// degraded draws through the same exit-4 marker.
func TestSolverFaultDegradesChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a chaos sweep")
	}
	var out strings.Builder
	err := Run([]string{"chaos", "-corpus", "2", "-perturb", "solver-fault:16", "-draws", "2"}, &out)
	if !errors.Is(err, errDegraded) {
		t.Fatalf("solver-fault sweep returned %v, want errDegraded\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "priced on fallback routes") {
		t.Error("chaos report does not surface the degraded draws")
	}
}

// TestResilienceFlagUsageErrors: malformed -timeout / -solver-fault values
// are usage errors (exit code 2), caught before any work starts.
func TestResilienceFlagUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"scenario", "-family", "uniform", "-timeout", "-1s"},
		{"scenario", "-family", "uniform", "-solver-fault", "-2"},
	} {
		var out strings.Builder
		if err := Run(args, &out); !errors.Is(err, errUsage) {
			t.Errorf("rbrepro %s returned %v, want usage error", strings.Join(args, " "), err)
		}
	}
}

// TestSolverFaultLeavesHealthyCommandsAlone: experiment drivers that never
// enter the harness layer still succeed under the flag — it gates recovery
// blocks, not output.
func TestSolverFaultLeavesHealthyCommandsAlone(t *testing.T) {
	clean := runOK(t, "table1", "-quick")
	faulted := runOK(t, "table1", "-quick", "-solver-fault", "1")
	if clean != faulted {
		t.Error("table1 output changed under -solver-fault")
	}
}
