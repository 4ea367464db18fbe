// Command ppbench regenerates the paper's tables and figures
// (see DESIGN.md's per-experiment index). The repo's tracked benchmark
// is bench/ (go run ./bench).
//
// Usage:
//
//	ppbench -exp all                 # every experiment, default scale
//	ppbench -exp table3 -scale quick # one experiment, reduced scale
//	ppbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all' (see -list)")
		scale   = flag.String("scale", "default", "quick | default")
		users   = flag.Int("users", 0, "override MobileTab/Timeshift user count")
		verbose = flag.Bool("v", false, "log training progress")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "default":
		s = experiments.DefaultScale()
	default:
		fmt.Fprintf(os.Stderr, "ppbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *users > 0 {
		s.MobileTabUsers = *users
		s.TimeshiftUsers = *users
	}

	lab := experiments.NewLab(s)
	lab.Verbose = *verbose

	start := time.Now()
	if *exp == "all" {
		for _, id := range experiments.IDs() {
			runOne(lab, id)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			runOne(lab, strings.TrimSpace(id))
		}
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Second))
}

func runOne(lab *experiments.Lab, id string) {
	t0 := time.Now()
	r := lab.ByID(id)
	if r == nil {
		fmt.Fprintf(os.Stderr, "ppbench: unknown experiment %q (use -list)\n", id)
		os.Exit(2)
	}
	fmt.Println(r.Render())
	fmt.Printf("(%s took %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
}
