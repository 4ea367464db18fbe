// Command pprouter is the cluster front door: it consistent-hashes users
// across N ppserve replica processes and serves the same HTTP API as a
// single replica — POST /event, /predict, /flush and GET /statz, /healthz,
// /digest — so ppload (or any client) drives a cluster exactly like one
// process. Data-plane requests forward to the owning replica; control-plane
// requests fan out and aggregate (the cluster digest is order-independent
// across replicas and directly comparable to the single-process sequential
// digest).
//
// Resharding is an admin action: POST /admin/reshard with a JSON body
// {"replicas": ["http://...", ...]} drains the affected key ranges from
// their current owners (flush → export → import → drop) and cuts the ring
// over with zero unexpected cold starts. GET /ring describes the current
// assignment.
//
// With -wire-listen the router also accepts the binary wire protocol on a
// second listener and, for replicas named in -wire-replicas, forwards the
// hot path over pooled wire connections — splicing inbound event batches
// into per-owner byte ranges instead of re-marshalling JSON. Control-plane
// traffic stays on HTTP either way.
//
// Usage:
//
//	pprouter -listen 127.0.0.1:8090 \
//	  -replicas http://127.0.0.1:8101,http://127.0.0.1:8102,http://127.0.0.1:8103
//	pprouter -listen 127.0.0.1:8090 -wire-listen 127.0.0.1:9090 \
//	  -replicas http://127.0.0.1:8101,http://127.0.0.1:8102 \
//	  -wire-replicas 127.0.0.1:9101,127.0.0.1:9102
//	ppload -addr http://127.0.0.1:8090 -users 500
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/loadgen"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8090", "router listen address")
		replicas     = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		wireListen   = flag.String("wire-listen", "", "also accept the binary wire protocol (hot event/predict path) on this address")
		wireReplicas = flag.String("wire-replicas", "", "comma-separated replica wire addresses aligned with -replicas (empty entries fall back to HTTP); requires -wire-listen")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per replica (0 = default)")
		waitHealthy  = flag.Duration("wait-healthy", 60*time.Second, "wait this long for every replica's /healthz before serving (0 = don't wait)")
		followers    = flag.String("followers", "", "comma-separated primary=follower base-URL pairs for failover")
		spares       = flag.String("spares", "", "comma-separated standby follower base URLs for re-replication after a failover")
		probeIval    = flag.Duration("probe-interval", 0, "health-probe period; > 0 enables the prober and automatic failover")
		probeTO      = flag.Duration("probe-timeout", time.Second, "per-probe HTTP timeout")
		probeFails   = flag.Int("probe-fails", 3, "consecutive probe failures before a replica is declared dead")

		dataTO     = flag.Duration("data-timeout", 0, "per-forward deadline for /event and /predict (0 = 10s default)")
		controlTO  = flag.Duration("control-timeout", 0, "per-forward deadline for /flush, /export, /import and other control calls (0 = 2m default)")
		predictRet = flag.Int("predict-retries", 0, "retry budget for owner-replica predict forwards (0 = default of 2, negative = no retries)")
		brkFails   = flag.Int("breaker-fails", 0, "consecutive forward failures before a replica's circuit breaker opens (0 = default of 5)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open trial forward (0 = 1s default)")
		faultsFile = flag.String("faults", "", "arm a deterministic fault-injection scenario from this JSON file (testing only)")
	)
	flag.Parse()

	splitURLs := func(s string) []string {
		var out []string
		for _, u := range strings.Split(s, ",") {
			if u = strings.TrimSpace(u); u != "" {
				out = append(out, strings.TrimRight(u, "/"))
			}
		}
		return out
	}
	urls := splitURLs(*replicas)
	if len(urls) == 0 || *vnodes < 0 {
		fmt.Fprintln(os.Stderr, "pprouter: -replicas must list at least one URL and -vnodes must be >= 0")
		os.Exit(2)
	}
	// -wire-replicas is positional against -replicas so an operator cannot
	// mis-pair a wire address with the wrong replica URL. Entries may be
	// empty ("addr1,,addr3"): that replica is reached over HTTP instead.
	wireAddrs := map[string]string{}
	if *wireReplicas != "" {
		if *wireListen == "" {
			fmt.Fprintln(os.Stderr, "pprouter: -wire-replicas requires -wire-listen")
			os.Exit(2)
		}
		parts := strings.Split(*wireReplicas, ",")
		if len(parts) != len(urls) {
			fmt.Fprintf(os.Stderr, "pprouter: -wire-replicas lists %d addresses for %d replicas\n", len(parts), len(urls))
			os.Exit(2)
		}
		for i, w := range parts {
			if w = strings.TrimSpace(w); w != "" {
				wireAddrs[urls[i]] = w
			}
		}
	}

	followerOf := map[string]string{}
	for _, pair := range splitURLs(*followers) {
		primary, follower, ok := strings.Cut(pair, "=")
		if !ok || primary == "" || follower == "" {
			fmt.Fprintf(os.Stderr, "pprouter: -followers entry %q is not primary=follower\n", pair)
			os.Exit(2)
		}
		followerOf[strings.TrimRight(primary, "/")] = strings.TrimRight(follower, "/")
	}

	if *faultsFile != "" {
		plan, err := faults.Load(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprouter: -faults: %v\n", err)
			os.Exit(2)
		}
		if err := faults.Arm(plan); err != nil {
			fmt.Fprintf(os.Stderr, "pprouter: -faults: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("FAULT INJECTION ARMED: %d rule(s) from %s (seed %d)\n",
			len(plan.Rules), *faultsFile, plan.Seed)
	}

	router, err := cluster.New(cluster.Options{
		Replicas:        urls,
		VNodes:          *vnodes,
		Followers:       followerOf,
		Spares:          splitURLs(*spares),
		ProbeInterval:   *probeIval,
		ProbeTimeout:    *probeTO,
		ProbeFails:      *probeFails,
		DataTimeout:     *dataTO,
		ControlTimeout:  *controlTO,
		PredictRetries:  *predictRet,
		BreakerFails:    *brkFails,
		BreakerCooldown: *brkCool,
		WireAddrs:       wireAddrs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pprouter: %v\n", err)
		os.Exit(2)
	}

	if *waitHealthy > 0 {
		wait := append([]string(nil), urls...)
		for _, f := range followerOf {
			wait = append(wait, f)
		}
		wait = append(wait, splitURLs(*spares)...)
		for _, u := range wait {
			if err := loadgen.WaitHealthy(u, *waitHealthy); err != nil {
				fmt.Fprintf(os.Stderr, "pprouter: replica %s: %v\n", u, err)
				os.Exit(1)
			}
		}
	}
	router.StartProber()

	srv := &http.Server{Addr: *listen, Handler: router}
	done := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigCh
		fmt.Printf("\nreceived %s, shutting down (replicas keep running)...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pprouter: shutdown: %v\n", err)
		}
		router.CloseWire()
		router.StopProber()
	}()

	if *wireListen != "" {
		wl, err := net.Listen("tcp", *wireListen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprouter: -wire-listen: %v\n", err)
			os.Exit(1)
		}
		go func() {
			if err := router.ServeWire(wl); err != nil {
				fmt.Fprintf(os.Stderr, "pprouter: wire listener: %v\n", err)
			}
		}()
		fmt.Printf("wire protocol on %s (%d replicas reachable over wire)\n", wl.Addr(), len(wireAddrs))
	}

	fmt.Printf("routing %d replicas on %s (vnodes=%d)\n", len(urls), *listen, router.Ring().VNodes())
	for i, u := range urls {
		if f := followerOf[u]; f != "" {
			fmt.Printf("  replica %d: %s (follower %s)\n", i, u, f)
		} else {
			fmt.Printf("  replica %d: %s\n", i, u)
		}
	}
	if *probeIval > 0 {
		fmt.Printf("  probing every %s (timeout %s, dead after %d fails)\n", *probeIval, *probeTO, *probeFails)
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "pprouter: %v\n", err)
		os.Exit(1)
	}
	<-done
}
