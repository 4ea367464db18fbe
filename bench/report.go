package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func printMetrics(w io.Writer, defs []metricDef, from metricSet) {
	for _, d := range defs {
		m, ok := from[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-5s (%s is better, n=%d)%s\n", d.Name, m.Value, d.Unit, d.Better, m.Samples, bound)
	}
}

// printResult prints every metric by name and unit, with the sample count
// behind it, the machine fingerprint and the operation counts.
func printResult(w io.Writer, spec workloadSpec, res *result) {
	fp := res.Fingerprint
	fmt.Fprintf(w, "== %s: %s\n", spec.Name, spec.describe())
	fmt.Fprintf(w, "   why: %s\n", spec.Why)
	fmt.Fprintf(w, "   machine: nproc=%d GOMAXPROCS=%d %s cpu=%q kernel=%s\n", fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.CPUModel, fp.Kernel)
	fmt.Fprintf(w, "   generator: %d event + %d predict connection(s), seed %d, %d segment(s) x %d sessions, warm-up %d, %d set-up round(s), pre-check prefix %d\n",
		fp.EventConns, fp.PredictConns, fp.Seed, fp.Segments, fp.SegSessions, fp.WarmSessions, fp.SetupRounds, fp.PrecheckPrefix)
	if res.PerLayer == nil {
		fmt.Fprintln(w, "end-to-end (tracing off; rate and CPU cost are the second-best segment's, counts and latencies the median over the segments; time-based figures speed-adjusted):")
		printMetrics(w, endToEnd, res.EndToEnd)
	} else {
		fmt.Fprintf(w, "end-to-end of the undecorated segment (for reference; gated figures come from an untraced run):\n")
		printMetrics(w, endToEnd, res.EndToEnd)
		fmt.Fprintf(w, "per layer (%d decorated segment(s) + ledger; 0 = layer not on this workload's path):\n", tracedSegments)
		printMetrics(w, perLayer, res.PerLayer)
		fmt.Fprintln(w, "spans (self = span minus the part its child spans cover):")
		for _, s := range res.Spans {
			fmt.Fprintf(w, "  %-44s n=%-7d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
		if res.TracePath != "" {
			fmt.Fprintf(w, "  spans written to %s\n", res.TracePath)
		}
	}
	fmt.Fprintf(w, "speed: probe %.0f ns per loopback call (reference %d), sensitivity %.1f -> factor %.4f; as measured: setup_s %.4f, sessions_per_s %.1f, cpu_ms_per_ksession %.4f\n",
		res.ProbeNs, speedProbeRefNs, spec.SpeedSensitivity, res.SpeedFactor,
		res.Raw["setup_s"].Value, res.Raw["sessions_per_s"].Value, res.Raw["cpu_ms_per_ksession"].Value)
	fmt.Fprintln(w, "segments (as measured):")
	for i, s := range res.Segments {
		kind := "timed"
		if s.Traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "  %d %-6s %6.3f s  %10.1f sess/s  %8.4f cpu-ms/ksess  %8.4f allocs/sess  predict p50 %7.3f ms (n=%d)  flush %8.2f ms\n",
			i+1, kind, s.WallS, s.SessionsPerS, s.CPUMsPerKSession, s.AllocsPerSession, s.PredictP50Ms, s.Predicts, s.FlushMs)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
	if res.OK {
		fmt.Fprintln(w, "checks: ok (digest pre-check, accepted=sent, updates_run=sessions, keys=users, no errors, no degraded predicts, store healthy)")
	}
}

// writeResultFile leaves the full result, fingerprint included, beside
// the trace files.
func writeResultFile(dir string, res *result) error {
	type namedMetric struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	named := func(defs []metricDef, from metricSet) map[string]namedMetric {
		out := map[string]namedMetric{}
		for _, d := range defs {
			if m, ok := from[d.Name]; ok {
				out[d.Name] = namedMetric{m.Value, d.Unit, m.Samples}
			}
		}
		return out
	}
	doc := struct {
		*result
		EndToEnd   map[string]namedMetric `json:"end_to_end"`
		AsMeasured map[string]namedMetric `json:"as_measured"` // before the speed adjustment
		PerLayer   map[string]namedMetric `json:"per_layer,omitempty"`
	}{res, named(endToEnd, res.EndToEnd), named(endToEnd, res.Raw), named(perLayer, res.PerLayer)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, res.Workload+".result.json"), append(data, '\n'), 0o644)
}
