// Command fdqd serves an fdq catalog to network clients: it loads
// relations from a .fdq script, attaches a bound-governed admission
// Governor per tenant, and streams query results to concurrent fdqc
// clients over the length-prefixed frame protocol (see DESIGN.md, "Wire
// protocol").
//
// Usage:
//
//	fdqd -script data.fdq [-addr :7411] [-http :7412] [-drain 10s]
//	     [-gov "bound=24,policy=queue,rows=1000000"]
//	     [-tenant "paid:bound=30,policy=queue"] [-tenant "free:bound=16,policy=reject"]
//
// Governor specs are comma-separated key=value pairs: bound (max log2
// output bound), policy (reject|queue|degrade), rows, mem (bytes, K/M/G
// suffixes), degrade (LIMIT-k for policy=degrade), timeout (per query).
// -tenant prefixes a spec with "name:".
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight queries
// finish streaming up to -drain, then everything is force-cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/fdq"
	"repro/fdq/fdqd"
)

func main() {
	addr := flag.String("addr", ":7411", "query protocol listen address")
	httpAddr := flag.String("http", "", "observability sidecar listen address (/healthz, /metrics); empty = off")
	script := flag.String("script", "", "catalog source: a .fdq script (rel/row directives)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-frame socket read/write deadline")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle between queries this long")
	maxConns := flag.Int("max-conns", 0, "server-wide open-connection cap; extras get a typed over-capacity refusal (0 = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hint carried in over-capacity refusals")
	frameTimeout := flag.Duration("frame-timeout", 0, "slow-loris guard: a started frame must finish within this (0 = io-timeout)")
	govSpec := flag.String("gov", "", "default tenant governor spec (key=value, comma-separated)")
	var tenantSpecs stringList
	flag.Var(&tenantSpecs, "tenant", "named tenant governor: \"name:spec\" (repeatable)")
	flag.Parse()

	if *script == "" {
		log.Fatal("fdqd: -script is required")
	}
	src, err := os.ReadFile(*script)
	if err != nil {
		log.Fatalf("fdqd: %v", err)
	}
	cat, _, err := fdq.ParseScript(string(src))
	if err != nil {
		log.Fatalf("fdqd: parse %s: %v", *script, err)
	}

	cfg := fdqd.Config{
		Catalog:      cat,
		IOTimeout:    *ioTimeout,
		IdleTimeout:  *idle,
		MaxConns:     *maxConns,
		RetryAfter:   *retryAfter,
		FrameTimeout: *frameTimeout,
		Tenants:      map[string][]fdq.GovernorOption{},
	}
	if cfg.DefaultGovernor, err = parseGovSpec(*govSpec); err != nil {
		log.Fatalf("fdqd: -gov: %v", err)
	}
	for _, ts := range tenantSpecs {
		name, spec, ok := strings.Cut(ts, ":")
		if !ok || name == "" {
			log.Fatalf("fdqd: -tenant %q: want \"name:spec\"", ts)
		}
		opts, err := parseGovSpec(spec)
		if err != nil {
			log.Fatalf("fdqd: -tenant %s: %v", name, err)
		}
		cfg.Tenants[name] = opts
	}

	srv, err := fdqd.New(cfg)
	if err != nil {
		log.Fatalf("fdqd: %v", err)
	}

	if *httpAddr != "" {
		hs := &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler()}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("fdqd: http sidecar: %v", err)
			}
		}()
		defer hs.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	log.Printf("fdqd: serving %d relations on %s", len(cat.Relations()), *addr)

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatalf("fdqd: %v", err)
		}
	case s := <-sig:
		log.Printf("fdqd: %v: draining (budget %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("fdqd: drain expired, forced shutdown: %v", err)
			os.Exit(1)
		}
		log.Print("fdqd: drained cleanly")
	}
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

// parseGovSpec turns "bound=24,policy=queue,rows=1000000,mem=64M" into
// governor options. An empty spec is a valid, unlimited governor.
func parseGovSpec(spec string) ([]fdq.GovernorOption, error) {
	var opts []fdq.GovernorOption
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad pair %q (want key=value)", kv)
		}
		switch k {
		case "bound":
			b, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("bound: %w", err)
			}
			opts = append(opts, fdq.WithMaxLogBound(b))
		case "policy":
			switch v {
			case "reject":
				opts = append(opts, fdq.WithPolicy(fdq.PolicyReject))
			case "queue":
				opts = append(opts, fdq.WithPolicy(fdq.PolicyQueue))
			case "degrade":
				opts = append(opts, fdq.WithPolicy(fdq.PolicyDegrade))
			default:
				return nil, fmt.Errorf("policy: want reject|queue|degrade, got %q", v)
			}
		case "rows":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("rows: %w", err)
			}
			opts = append(opts, fdq.WithMaxRows(n))
		case "mem":
			n, err := parseBytes(v)
			if err != nil {
				return nil, fmt.Errorf("mem: %w", err)
			}
			opts = append(opts, fdq.WithMaxMemory(n))
		case "degrade":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("degrade: %w", err)
			}
			opts = append(opts, fdq.WithDegradeLimit(n))
		case "timeout":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("timeout: %w", err)
			}
			opts = append(opts, fdq.WithQueryTimeout(d))
		default:
			return nil, fmt.Errorf("unknown key %q", k)
		}
	}
	return opts, nil
}

func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}
