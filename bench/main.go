// Command bench is the repo's one tracked benchmark: four long workloads,
// the end-to-end metrics a later change is judged by, and a traced run
// that explains them layer by layer. See README.md beside this file.
//
//	go run ./bench                         every workload, tracing off
//	go run ./bench -workload ingest-gemm   one workload
//	go run ./bench -trace 1                per-layer table and span files
//	go run ./bench -aa 3                   A/A: the full set three times
//	go run ./bench -contract               print BENCHMARK.json from the tables
//
// Without -workload the program re-executes itself once per workload, so
// set-up time and peak memory are each workload's own. The last line of a
// single-workload run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const (
	exitFailed  = 1 // a correctness check failed, or the run could not be made
	exitRefused = 2 // the benchmark declined to run (or bad usage)
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	aa       int
	relock   bool
	contract bool
	outDir   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, one process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same traffic")
	fs.IntVar(&o.seconds, "seconds", refSeconds, "run length: the reference box spends about this long in the timed segments")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, ledger, span file")
	fs.IntVar(&o.aa, "aa", 0, "A/A: run the full set this many times on consecutive seeds and compare against the bounds")
	fs.BoolVar(&o.relock, "relock", false, "rewrite bench/workloads.lock from the current encoders")
	fs.BoolVar(&o.contract, "contract", false, "print BENCHMARK.json as the tables in this package define it")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for trace files, result files and scratch data")
	if err := fs.Parse(args); err != nil {
		return exitRefused
	}
	if fs.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.aa < 0 {
		fmt.Fprintf(stderr, "bench: bad arguments %q\n", args)
		return exitRefused
	}
	switch {
	case o.contract:
		return printContract(stdout, stderr)
	case o.relock:
		return relock(stdout, stderr)
	case o.aa > 0:
		return runAA(o, stdout, stderr)
	case o.workload == "":
		return runAll(o, stdout, stderr)
	}
	spec, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return exitRefused
	}
	res, err := runWorkload(runConfig{
		spec: spec, seed: o.seed, segments: segmentsFor(o.seconds), rounds: setupRounds,
		traced: o.trace == 1, outDir: o.outDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", spec.Name, err)
		if errors.Is(err, errRefused) {
			return exitRefused
		}
		return exitFailed
	}
	printResult(stdout, spec, res)
	if err := writeResultFile(o.outDir, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
	}
	if err := printContractLine(stdout, res, o.trace == 1); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", spec.Name, err)
		return exitFailed
	}
	if !res.OK {
		return exitFailed
	}
	return 0
}

// child runs one workload in a fresh process and returns its standard
// output; the child's standard error passes through.
func child(o options, workload string, seed uint64, stderr io.Writer) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err = cmd.Run()
	return out.Bytes(), err
}

// runAll runs every workload, strictly one after the other.
func runAll(o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		out, err := child(o, w.Name, o.seed, stderr)
		stdout.Write(out)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			code = exitFailed
		}
	}
	return code
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(w io.Writer, res *result, traced bool) error {
	defs, from := endToEnd, res.EndToEnd
	if traced {
		defs, from = perLayer, res.PerLayer
	}
	line := contractLine{Correct: res.OK, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		m, ok := from[d.Name]
		if !ok {
			if res.OK {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			continue
		}
		line.Metrics[d.Name] = contractMetric{Value: m.Value, Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func parseContractLine(out []byte) (contractLine, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line contractLine
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &line)
	return line, err
}

// contractFile is BENCHMARK.json: exactly these keys.
type contractFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractGated    `json:"end_to_end"`
	PerLayer   []contractLayer    `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractGated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// printContract prints BENCHMARK.json from the tables, so the file at the
// repo root is generated, never hand-edited (bench_test.go pins the two).
func printContract(stdout, stderr io.Writer) int {
	doc := contractFile{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: refSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, contractGated{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, contractLayer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFailed
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// relock rewrites workloads.lock for the pinned seeds.
func relock(stdout, stderr io.Writer) int {
	var b strings.Builder
	b.WriteString("# SHA-256 of each workload's encoded traffic (warm-up + first segment) per pinned seed.\n")
	b.WriteString("# Rewritten by `go run ./bench -relock`; a mismatch fails a run with workload_drift.\n")
	for _, w := range workloads {
		for _, seed := range lockedSeeds {
			fmt.Fprintf(&b, "%s %d %s\n", w.Name, seed, streamHash(w, lockedRange(w, generateLog(w.Users, seed))))
		}
	}
	if err := os.WriteFile("bench/workloads.lock", []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(stderr, "bench: %v (run from the repository root)\n", err)
		return exitFailed
	}
	fmt.Fprint(stdout, b.String())
	return 0
}
