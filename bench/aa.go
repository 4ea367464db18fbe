package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// A/A: the same code, run repeatedly, must agree with itself within the
// bounds it asks later changes to meet. Each repetition uses the next
// seed, as the driver's acceptance runs do, so the spread includes what a
// change of inputs does to a metric as well as what the box does.

// worse is how much b is worse than a, as a share of a (negative when b
// is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

type aaRow struct {
	workload string
	def      metricDef
	values   []float64
	raw      []float64 // the same figures before the speed adjustment
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func (r aaRow) spread() float64 { return spread(r.values) }

// halves is how much worse the second half's median is than the first's.
func (r aaRow) halves() float64 {
	h := len(r.values) / 2
	if h == 0 {
		return 0
	}
	return worse(r.def, median(r.values[:h]), median(r.values[h:]))
}

func (r aaRow) maxPairwise() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range r.values {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

// breach reports whether the row fails the benchmark's own gate: the
// spread must stay within the bound, and the later half of the runs must
// not read worse than the earlier half by more than the bound. setup_s is
// held to the second rule only, like the driver does.
func (r aaRow) breach() bool {
	if r.halves() > r.def.Bound {
		return true
	}
	return r.def.Name != "setup_s" && r.spread() > r.def.Bound
}

// readAsMeasured reads the unadjusted end-to-end figures a child run
// left in its result file.
func readAsMeasured(dir, workload string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(dir, workload+".result.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		AsMeasured map[string]struct {
			Value float64 `json:"value"`
		} `json:"as_measured"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, m := range doc.AsMeasured {
		out[name] = m.Value
	}
	return out, nil
}

func runAA(o options, stdout, stderr io.Writer) int {
	o.trace = 0
	var rows []aaRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			rows = append(rows, aaRow{workload: w.Name, def: d})
		}
	}
	code := 0
	for rep := 0; rep < o.aa; rep++ {
		for wi, w := range workloads {
			out, err := child(o, w.Name, o.seed+uint64(rep), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: A/A rep %d %s: %v\n%s", rep, w.Name, err, out)
				return exitFailed
			}
			line, err := parseContractLine(out)
			if err != nil || !line.Correct {
				fmt.Fprintf(stderr, "bench: A/A rep %d %s: no correct result (%v)\n", rep, w.Name, err)
				return exitFailed
			}
			raw, err := readAsMeasured(o.outDir, w.Name)
			if err != nil {
				fmt.Fprintf(stderr, "bench: A/A rep %d %s: %v\n", rep, w.Name, err)
				return exitFailed
			}
			for di, d := range endToEnd {
				r := &rows[wi*len(endToEnd)+di]
				r.values = append(r.values, line.Metrics[d.Name].Value)
				if v, ok := raw[d.Name]; ok {
					r.raw = append(r.raw, v)
				}
			}
			fmt.Fprintf(stderr, "A/A rep %d/%d %s done (seed %d, failed ops %d)\n", rep+1, o.aa, w.Name, o.seed+uint64(rep), line.Failed)
		}
	}
	fmt.Fprintf(stdout, "A/A over %d repetitions (seeds %d..%d), %d s runs\n", o.aa, o.seed, o.seed+uint64(o.aa)-1, o.seconds)
	fmt.Fprintf(stdout, "%-13s %-22s %12s %12s %12s %8s %8s %8s %6s %9s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "2nd-1st", "max-pair", "bound", "raw iqr")
	for _, r := range rows {
		q1, q3 := quartiles(r.values)
		flag := ""
		if r.breach() {
			flag, code = "  BREACH", exitFailed
		}
		rawSpread := "-"
		if len(r.raw) == len(r.values) {
			rawSpread = fmt.Sprintf("%.2f%%", 100*spread(r.raw))
		}
		fmt.Fprintf(stdout, "%-13s %-22s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%% %9s%s\n",
			r.workload, r.def.Name, median(r.values), q1, q3, 100*r.spread(), 100*r.halves(), 100*r.maxPairwise(), 100*r.def.Bound, rawSpread, flag)
	}
	fmt.Fprintln(stdout, "values in run order:")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-22s", r.workload, r.def.Name)
		for _, v := range r.values {
			fmt.Fprintf(stdout, " %.5g", v)
		}
		fmt.Fprintln(stdout)
	}
	return code
}
