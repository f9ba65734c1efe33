package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	rb "recoveryblocks"
)

// infoReport is the machine-readable shape of `rbrepro info -json`: one
// document answering "what is this binary and what will it do with my
// workload" — build identity, the structural limits that pick solver routes,
// the registered recovery strategies and chaos perturbations, and the full
// observability metric catalog.
type infoReport struct {
	GoVersion     string            `json:"go_version"`
	Module        string            `json:"module,omitempty"`
	VCS           map[string]string `json:"vcs,omitempty"`
	NumCPU        int               `json:"num_cpu"`
	Limits        rb.Limits         `json:"limits"`
	Strategies    []rb.StrategyInfo `json:"strategies"`
	Perturbations []rb.StrategyInfo `json:"perturbations"`
	Metrics       []rb.MetricDef    `json:"metrics"`
}

// buildInfo collects the build identity: the toolchain version always, the
// module path and embedded VCS facts when the binary carries them (test
// binaries and `go run` builds may not).
func buildInfo() (module string, vcs map[string]string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", nil
	}
	module = bi.Main.Path
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs", "vcs.revision", "vcs.time", "vcs.modified":
			if vcs == nil {
				vcs = make(map[string]string)
			}
			vcs[s.Key] = s.Value
		}
	}
	return module, vcs
}

// runInfo prints the build/limits/registry/metric-catalog report — the one
// place that answers what this binary is and which routes and metrics it
// ships — as aligned text or, under -json, the machine-readable document.
func runInfo(stdout io.Writer, jsonOut bool) error {
	module, vcs := buildInfo()
	rep := infoReport{
		GoVersion:     runtime.Version(),
		Module:        module,
		VCS:           vcs,
		NumCPU:        runtime.NumCPU(),
		Limits:        rb.EngineLimits(),
		Strategies:    rb.StrategyCatalog(),
		Perturbations: rb.ChaosPerturbations(),
		Metrics:       rb.MetricsCatalog(),
	}
	if jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
		return nil
	}

	fmt.Fprintln(stdout, "rbrepro — Shin & Lee (1983) recovery-block analysis toolkit")
	fmt.Fprintf(stdout, "\nbuild:\n  go version    %s\n  cpus          %d\n", rep.GoVersion, rep.NumCPU)
	if rep.Module != "" {
		fmt.Fprintf(stdout, "  module        %s\n", rep.Module)
	}
	for _, k := range []string{"vcs", "vcs.revision", "vcs.time", "vcs.modified"} {
		if v, ok := rep.VCS[k]; ok {
			fmt.Fprintf(stdout, "  %-13s %s\n", k, v)
		}
	}

	fmt.Fprintln(stdout, "\nlimits:")
	fmt.Fprintf(stdout, "  max exact processes   %d  (exact-solve bound via the matrix-free Kronecker engine; larger n simulates)\n", rep.Limits.MaxExactProcesses)
	fmt.Fprintf(stdout, "  max enumerated        %d  (largest n with 2^n < sparse cutoff: async chain enumerated, dense LU; above it: orbit lumping or matrix-free)\n", rep.Limits.MaxEnumeratedProcesses)
	fmt.Fprintf(stdout, "  max split processes   %d  (split-chain E[L_i] cross-check bound; no matrix-free counterpart)\n", rep.Limits.MaxSplitProcesses)
	fmt.Fprintf(stdout, "  kron cutoff           %d  (orbit-lumped state count at/above which the async model runs matrix-free)\n", rep.Limits.KronCutoff)
	fmt.Fprintf(stdout, "  sparse cutoff         %d  (transient states; >= routes solves dense LU -> CSR Gauss-Seidel)\n", rep.Limits.SparseCutoff)
	fmt.Fprintf(stdout, "  default block size    %d  (Monte Carlo replications per block)\n", rep.Limits.DefaultBlockSize)
	fmt.Fprintf(stdout, "  max every-k           %d  (sync-every-k block period bound)\n", rep.Limits.MaxEveryK)
	fmt.Fprintf(stdout, "  max alias categories  %d  (event categories per superposed Poisson sampler)\n", rep.Limits.MaxAliasCategories)

	fmt.Fprintln(stdout, "\nstrategies:")
	for _, s := range rep.Strategies {
		fmt.Fprintf(stdout, "  %-14s %s\n", s.Name, s.Description)
	}

	fmt.Fprintln(stdout, "\nperturbations (chaos -perturb):")
	for _, p := range rep.Perturbations {
		fmt.Fprintf(stdout, "  %-18s %s\n", p.Name, p.Description)
	}

	fmt.Fprintln(stdout, "\nmetrics (-metrics report; * = per-name family, [runtime] = scheduling/clock-dependent):")
	for _, d := range rep.Metrics {
		section := ""
		if d.Runtime {
			section = " [runtime]"
		}
		fmt.Fprintf(stdout, "  %-38s %-9s %s%s\n", d.Name, d.Kind, d.Help, section)
	}
	return nil
}
