// Command dmtpbench is the repository's end-to-end benchmark. It drives
// the DMTP pipeline — sender → reshaping relay (stash, journal, flow
// table) → receiver — over loopback UDP in one process, or the simulated
// pilot topology, checks every delivered message, and prints one JSON
// result line:
//
//	bash dmtpbench/run.sh --workload tiny_1flow --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics: drop ledger, per-layer
// ladder, kernel-batch counters, and the traced-run span figures. The
// line before the result records the environment the numbers came from.
//
// Every layer is measured from outside, through the packages' exported
// APIs only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// result is what one run reports.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	notes     map[string]any // environment and sample counts, printed beside the result
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{}}
}

// fail records a correctness problem; it makes the run incorrect and
// counts n failed operations.
func (r *result) fail(n uint64, format string, args ...any) {
	r.correct = false
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; scratch files go under root/.bench_build
}

func (o options) scratch(parts ...string) string {
	return filepath.Join(append([]string{o.root, ".bench_build"}, parts...)...)
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: payload bytes, flow order and simulator seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under ROOT/.bench_build")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dmtpbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// One generator goroutine drives the pipeline; the roles' goroutines
	// share every CPU the machine has.
	runtime.GOMAXPROCS(runtime.NumCPU())
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root}
	if err := os.MkdirAll(opts.scratch(), 0o755); err != nil {
		fatal(err)
	}

	res := newResult()
	res.notes["env"] = environment(opts)
	selfTest(res)
	var err error
	if w.sim {
		err = runSim(opts, res)
	} else {
		err = runLive(opts, res)
	}
	if err != nil {
		fatal(err)
	}
	emit(opts, res)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dmtpbench: %v\n", err)
	os.Exit(1)
}

// emit prints the human summary to stderr, the notes line, then the
// result object as the last line of stdout.
func emit(opts options, res *result) {
	defs := endToEndMetrics
	vals := res.e2e
	if opts.trace {
		defs, vals = perLayerMetrics, res.layer
	}
	if res.attempted == 0 {
		res.fail(1, "no message was offered")
		res.attempted = 1
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !opts.trace {
			res.fail(1, "end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(1, "metric %s is not a number", d.name)
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(os.Stderr, "  %-34s %16.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %v: attempted %d failed %d correct %v\n",
		opts.workload.name, opts.seed, opts.trace, res.attempted, res.failed, res.correct)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "  problem: %s\n", p)
	}
	notes, err := json.Marshal(map[string]any{"notes": res.notes})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(notes))
	fmt.Println(string(line))
}
