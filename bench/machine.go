package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint is printed with every result: the numbers mean nothing
// without the machine and generator shape that produced them.
type fingerprint struct {
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	CPUModel       string `json:"cpu_model"`
	Kernel         string `json:"kernel"`
	EventConns     int    `json:"event_conns"`
	PredictConns   int    `json:"predict_conns"`
	Seed           uint64 `json:"seed"`
	Segments       int    `json:"segments"`
	SegSessions    int    `json:"segment_sessions"`
	WarmSessions   int    `json:"warmup_sessions"`
	SetupRounds    int    `json:"setup_rounds"`
	PrecheckPrefix int    `json:"precheck_sessions"`
}

func firstLineField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if key == "" {
			return strings.TrimSpace(line)
		}
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func machineFingerprint(cfg runConfig) fingerprint {
	eventConns, predictConns := generatorConns(cfg.spec)
	return fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel:   firstLineField("/proc/cpuinfo", "model name"),
		Kernel:     firstLineField("/proc/sys/kernel/osrelease", ""),
		EventConns: eventConns, PredictConns: predictConns,
		Seed: cfg.seed, Segments: cfg.segments, SegSessions: cfg.spec.SegSessions,
		WarmSessions: cfg.spec.WarmSessions, SetupRounds: cfg.rounds,
		PrecheckPrefix: min(precheckSessions, cfg.spec.WarmSessions),
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakMemMB is VmHWM, the process's peak resident set, in MB.
func peakMemMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(firstLineField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

var spinSink uint64

// calibSpin times a fixed integer loop. It is the same work before and
// after a run, so a difference measures the box, not the program.
func calibSpin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(start))
}
