// Command liquidlint is the repository's multichecker: it runs the custom
// determinism and hygiene analyzers from internal/lint over the module and
// fails the build on violations. It is part of `make check` (between vet and
// test); see DESIGN.md "Static invariants" for what each analyzer guards.
//
// Usage:
//
//	liquidlint [-json] [-only name,name] [-disable name,name] [-list] [packages]
//
// With no package arguments it analyzes ./... . Packages are analyzed in
// dependency order so the fact-based analyzers (lockorder, goroleak,
// hotalloc, walltime, seedflow) can reason across package boundaries;
// packages pulled in only as dependencies of the named patterns are analyzed
// for facts but report no diagnostics of their own. Every run analyzes from
// source and keeps facts in memory; it writes no file.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings print
// as file:line:col: analyzer: message, or with -json as a schema-stable
// object {version, analyzers, diagnostics, suppressions} with diagnostics
// sorted by position — the format LINT.baseline pins in make check. A
// summary of live suppressions goes to stderr.
//
// Suppress an individual finding with a justified annotation:
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line, the line above it, or the first line of the
// enclosing multi-line statement. Unused or reasonless directives are
// themselves findings, reported under the lintdirective pseudo-analyzer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"liquid/internal/lint/analysis"
	"liquid/internal/lint/ctxflow"
	"liquid/internal/lint/floatacc"
	"liquid/internal/lint/goroleak"
	"liquid/internal/lint/hotalloc"
	"liquid/internal/lint/load"
	"liquid/internal/lint/lockorder"
	"liquid/internal/lint/maporder"
	"liquid/internal/lint/seedflow"
	"liquid/internal/lint/telemflow"
	"liquid/internal/lint/walltime"
)

// jsonVersion is bumped whenever the -json schema changes shape, so baseline
// diffs fail loudly instead of misreading fields.
const jsonVersion = 1

// analyzers is the full ten-analyzer suite, in documentation order. The
// lintdirective entry is a framework pseudo-analyzer: directive auditing
// runs inside analysis.Run, and listing it here makes its name
// addressable by -only/-disable and -list.
var analyzers = []*analysis.Analyzer{
	maporder.Analyzer,
	seedflow.Analyzer,
	walltime.Analyzer,
	ctxflow.Analyzer,
	floatacc.Analyzer,
	telemflow.Analyzer,
	lockorder.Analyzer,
	goroleak.Analyzer,
	hotalloc.Analyzer,
	analysis.Directive,
}

// report is the -json output schema. Field order, sorted diagnostics, and
// json's sorted map keys make the encoding byte-stable for a given tree.
type report struct {
	Version      int                   `json:"version"`
	Analyzers    []string              `json:"analyzers"`
	Diagnostics  []analysis.Diagnostic `json:"diagnostics"`
	Suppressions map[string]int        `json:"suppressions"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the multichecker; split from main for testing.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("liquidlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a schema-stable JSON object")
		only    = fs.String("only", "", "comma-separated analyzer names to run exclusively")
		disable = fs.String("disable", "", "comma-separated analyzer names to skip")
		list    = fs.Bool("list", false, "list analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: liquidlint [-json] [-only name,name] [-disable name,name] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	active, err := selectAnalyzers(*only, *disable)
	if err != nil {
		fmt.Fprintln(errOut, "liquidlint:", err)
		return 2
	}
	activeNames := make([]string, len(active))
	activeSet := make(map[string]bool, len(active))
	for i, a := range active {
		activeNames[i] = a.Name
		activeSet[a.Name] = true
	}

	pkgs, err := load.Packages(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(errOut, "liquidlint:", err)
		return 2
	}
	var targets []*analysis.Target
	loadBroken := false
	for _, p := range pkgs {
		if p.Err != nil {
			fmt.Fprintf(errOut, "liquidlint: warning: dependency %s: %v (its facts are unavailable)\n", p.ImportPath, p.Err)
			continue
		}
		if len(p.TypeErrors) > 0 && !p.DepOnly {
			// A package that fails to type-check must not pass lint silently.
			for _, te := range p.TypeErrors {
				fmt.Fprintf(errOut, "liquidlint: %s: %v\n", p.ImportPath, te)
			}
			loadBroken = true
			continue
		}
		targets = append(targets, &analysis.Target{
			Path: p.ImportPath, Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info,
			Imports: p.Imports, DepOnly: p.DepOnly,
		})
	}
	if loadBroken {
		return 2
	}
	total, err := analysis.Run(targets, active)
	if err != nil {
		fmt.Fprintln(errOut, "liquidlint:", err)
		return 2
	}

	// Directive findings are reported whatever the selection; keep them
	// only when lintdirective itself is active.
	diags := total.Diagnostics[:0]
	for _, d := range total.Diagnostics {
		if activeSet[d.Analyzer] {
			diags = append(diags, d)
		}
	}

	if n := len(total.Suppressions); n > 0 {
		parts := make([]string, 0, n)
		for name := range total.Suppressions {
			parts = append(parts, name)
		}
		sort.Strings(parts)
		for i, name := range parts {
			parts[i] = fmt.Sprintf("%s=%d", name, total.Suppressions[name])
		}
		fmt.Fprintf(errOut, "liquidlint: live suppressions: %s\n", strings.Join(parts, " "))
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{
			Version:      jsonVersion,
			Analyzers:    activeNames,
			Diagnostics:  diags,
			Suppressions: total.Suppressions,
		}); err != nil {
			fmt.Fprintln(errOut, "liquidlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "liquidlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// selectAnalyzers filters the suite by the -only and -disable flags.
func selectAnalyzers(only, disable string) ([]*analysis.Analyzer, error) {
	if only != "" && disable != "" {
		return nil, fmt.Errorf("-only and -disable are mutually exclusive")
	}
	known := make(map[string]bool, len(analyzers))
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		known[a.Name] = true
		names[i] = a.Name
	}
	parse := func(flagName, value string) (map[string]bool, error) {
		set := make(map[string]bool)
		for _, name := range strings.Split(value, ",") {
			if name = strings.TrimSpace(name); name != "" {
				if !known[name] {
					return nil, fmt.Errorf("unknown analyzer %q in %s (have: %s)", name, flagName, strings.Join(names, ", "))
				}
				set[name] = true
			}
		}
		return set, nil
	}
	var active []*analysis.Analyzer
	switch {
	case only != "":
		keep, err := parse("-only", only)
		if err != nil {
			return nil, err
		}
		for _, a := range analyzers {
			if keep[a.Name] {
				active = append(active, a)
			}
		}
	default:
		skip, err := parse("-disable", disable)
		if err != nil {
			return nil, err
		}
		for _, a := range analyzers {
			if !skip[a.Name] {
				active = append(active, a)
			}
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return active, nil
}
