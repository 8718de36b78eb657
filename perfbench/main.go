// Command perfbench is the repository benchmark. It serves a seeded cube
// from internal/server in-process behind a loopback listener, drives one
// workload's traffic at it, checks every answer, and prints the metrics as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload sum-batch --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant, prints the per-layer metrics and the cost ledger, and writes the
// spans it recorded to .bench_build/perfbench/spans-<workload>-<seed>.json.
// The command exits non-zero when any answer is wrong. BENCH.md describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultSeed = 1
	// holdoutSeed is the second seed on which a claimed gain must also
	// hold; do not tune a change against it.
	holdoutSeed = 2
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "seed of the cube cells, queries and updates")
	seconds := fs.Float64("seconds", 30, "measured seconds of traffic")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	spans := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	if err := selfTest(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: checker self-test failed: %v\n", err)
		return 1
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	rep, err := execute(w, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	stamp := map[string]any{
		"workload": w.name, "seed": *seed, "default_seed": defaultSeed, "holdout_seed": holdoutSeed,
		"seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "source_sha256": sourceDigest(),
		"server_options": w.optionStamp(),
		"clients":        map[string]any{"readers": 1, "writers": 1, "write_rate_per_s": w.writeRate, "updates_per_write": w.writeSize, "write_share": w.writeShare},
	}
	printJSON(map[string]any{"stamp": stamp})
	printJSON(map[string]any{"report": rep.notes})
	if rep.ledger != nil {
		printJSON(map[string]any{"ledger": rep.ledger})
	}
	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := rep.failed == 0 && rep.attempted > 0
	printJSON(map[string]any{"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics})
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or answered wrong\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
