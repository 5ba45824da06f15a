// Command fdjoin analyzes and evaluates join queries with functional
// dependencies from a simple text format (see internal/query.Parse for the
// grammar), printing every bound of the paper and running any of its
// algorithms through the public fdq API (catalog + session + streaming
// rows).
//
// Usage:
//
//	fdjoin analyze <file.fdq>
//	fdjoin run [-alg auto|chain|sm|csma|generic|binary] [-parallel N] [-limit N]
//	           [-timeout D] [-max-bound B] <file.fdq>
//	fdjoin demo                 # analyze the paper's running example
//
// run streams: rows print as the executor produces them, and -limit N
// stops the execution the moment the N-th row exists. -timeout and
// -max-bound attach a resource governor: the query aborts after D, and is
// refused outright when its certified log2 output bound exceeds B.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/fdq"
	"repro/internal/engine"
	"repro/internal/paper"
	"repro/internal/query"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "analyze":
		if len(os.Args) != 3 {
			usage()
		}
		analyze(load(os.Args[2]))
	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		alg := fs.String("alg", "auto", "algorithm: auto|chain|sm|csma|generic|binary")
		par := fs.Int("parallel", 0, "worker pool size (0 = one per CPU, 1 = sequential)")
		limit := fs.Int("limit", 0, "stop after N rows (0 = no limit)")
		timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
		maxBound := fs.Float64("max-bound", math.Inf(1), "refuse queries whose certified log2 output bound exceeds this")
		_ = fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			usage()
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		cat, qb, err := fdq.ParseScript(string(src))
		if err != nil {
			fatal(err)
		}
		run(cat, qb.Alg(*alg).Workers(*par).Limit(*limit), governor(*timeout, *maxBound))
	case "demo":
		q := paper.Fig1QuasiProduct(64)
		fmt.Println("paper running example: Q :- R(x,y), S(y,z), T(z,u), xz→u, yu→x, N=64")
		analyze(q)
		cat, qb, err := fdq.ParseScript(paper.Fig1QuasiProductScript(64))
		if err != nil {
			fatal(err)
		}
		run(cat, qb, nil)
	default:
		usage()
	}
}

func load(path string) *query.Q {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	q, err := query.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if err := q.Validate(); err != nil {
		fatal(err)
	}
	return q
}

func analyze(q *query.Q) {
	a := engine.Analyze(q)
	fmt.Printf("variables: %v\n", q.Names)
	for _, r := range q.Rels {
		fmt.Printf("  %s%v: %d tuples\n", r.Name, r.Attrs, r.Len())
	}
	fmt.Printf("lattice: %d elements; distributive=%v modular=%v normal=%v M3-top=%v\n",
		a.LatticeSize, a.Distributive, a.Modular, a.Normal, a.HasM3Top)
	fmt.Printf("bounds (log2):\n")
	fmt.Printf("  AGM (FD-blind)     %8.3f\n", a.LogAGM)
	fmt.Printf("  AGM(Q⁺)            %8.3f\n", a.LogAGMClosure)
	fmt.Printf("  chain (best good)  %8.3f\n", a.LogChain)
	fmt.Printf("  GLVV / LLP         %8.3f\n", a.LogLLP)
	fmt.Printf("  CLLP (degrees)     %8.3f\n", a.LogCLLP)
	fmt.Printf("good SM proof exists: %v\n", a.SMProofExists)
}

// governor maps the run flags onto an fdq.Governor, or nil when neither
// control is requested.
func governor(timeout time.Duration, maxBound float64) *fdq.Governor {
	var opts []fdq.GovernorOption
	if timeout > 0 {
		opts = append(opts, fdq.WithQueryTimeout(timeout))
	}
	if !math.IsInf(maxBound, 1) {
		opts = append(opts, fdq.WithMaxLogBound(maxBound))
	}
	if len(opts) == 0 {
		return nil
	}
	return fdq.NewGovernor(opts...)
}

// run executes the query through the public API, streaming rows as the
// executor produces them, under the governor's budgets when one is set.
func run(cat *fdq.Catalog, qb *fdq.Q, gov *fdq.Governor) {
	var sessOpts []fdq.SessionOption
	if gov != nil {
		sessOpts = append(sessOpts, fdq.WithGovernor(gov))
	}
	sess := fdq.NewSession(cat, sessOpts...)
	ex, err := sess.Explain(qb)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plan: %s (%s)\n", ex.Algorithm, ex.Reason)
	if !math.IsNaN(ex.LogBound) && !math.IsInf(ex.LogBound, 1) {
		fmt.Printf("predicted bound: 2^%.3f\n", ex.LogBound)
	}

	start := time.Now()
	rows, err := sess.Query(context.Background(), qb)
	if err != nil {
		var be *fdq.BoundExceededError
		if errors.As(err, &be) {
			fmt.Fprintf(os.Stderr,
				"fdjoin: query refused: its certified output bound 2^%.3f exceeds the -max-bound budget 2^%.3f\n"+
					"        (the bound certifies worst-case output size — raise -max-bound, add FDs or degree\n"+
					"        bounds that tighten the bound, or add -limit to cap the answer)\n",
				be.LogBound, be.Budget)
			os.Exit(1)
		}
		fatal(err)
	}
	defer rows.Close()
	shown, total := 0, 0
	for rows.Next() {
		total++
		if shown < 10 {
			fmt.Printf("  %v\n", rows.Row())
			shown++
		}
	}
	if err := rows.Err(); err != nil {
		fatal(err)
	}
	if total > shown {
		fmt.Printf("  ... %d more\n", total-shown)
	}
	fmt.Printf("|Q| = %d tuples in %v\n", total, time.Since(start))
	if st := rows.Stats(); st != nil && st.Workers > 1 {
		fmt.Printf("executed on %d workers (algorithm %s)\n", st.Workers, st.Algorithm)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fdjoin analyze <file.fdq> | fdjoin run [-alg A] [-parallel N] [-limit N] [-timeout D] [-max-bound B] <file.fdq> | fdjoin demo")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fdjoin:", err)
	os.Exit(1)
}
