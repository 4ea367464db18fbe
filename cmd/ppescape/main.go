// Command ppescape is the escape-analysis regression gate. It builds
// the packages named in the pinned hot-path config with -gcflags=-m,
// attributes every heap-escape message to its enclosing function, and
// exits non-zero if a pinned function carries an escape its baseline
// does not allow.
//
// Usage:
//
//	ppescape [-config cmd/ppescape/hotpaths.conf] [-v]
//
// The build runs on the ambient build cache. That is safe: cmd/go
// replays a cached compile's -m diagnostics on a hit, and an edit to a
// pinned package changes its cache key, so a warm run reports exactly
// what a from-scratch compile would (TestWarmCacheReplaysAndTracksEdits
// in internal/analysis/escape checks both halves). -v prints the
// escapes sorted by file, line and message, so two reports compare byte
// for byte.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis/escape"
)

func main() {
	configPath := flag.String("config", filepath.Join("cmd", "ppescape", "hotpaths.conf"), "pinned hot-path list")
	verbose := flag.Bool("v", false, "print every escape attributed to a pinned package, including allowed ones")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	cfgPath := *configPath
	if !filepath.IsAbs(cfgPath) {
		cfgPath = filepath.Join(root, cfgPath)
	}
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	hot, err := escape.ParseConfig(data)
	if err != nil {
		fatal(err)
	}
	if len(hot) == 0 {
		fatal(fmt.Errorf("%s pins no functions", *configPath))
	}

	out, err := escape.RunBuild(root, escape.Pkgs(hot))
	if err != nil {
		fatal(err)
	}
	escapes := escape.ParseBuildOutput(out)
	if *verbose {
		// Build output arrives in package-completion order, which varies
		// from run to run; sort so the report is reproducible.
		slices.SortFunc(escapes, func(a, b escape.Escape) int {
			return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), strings.Compare(a.Msg, b.Msg))
		})
		for _, e := range escapes {
			fmt.Printf("escape: %s:%d: %s\n", e.File, e.Line, e.Msg)
		}
	}
	violations, err := escape.Attribute(root, escapes, hot)
	if err != nil {
		fatal(err)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "ppescape: %d new heap escape(s) on pinned hot paths\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("ppescape: %d pinned function(s) clean (%d escape message(s) inspected)\n", len(hot), len(escapes))
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod, mirroring cmd/pplint.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppescape:", err)
	os.Exit(2)
}
