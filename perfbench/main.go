// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real serving and offline paths — serve.Server
// handlers and serve.Proxy on loopback listeners, shard catalogs over
// durable catalog stores, and core.Embedder in-process — checks every
// answer, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	go run . --workload search-lone --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run is made twice, untraced and then traced, and the metrics are the
// per-layer numbers of the traced pass plus the tracing overhead. See
// README.md for the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units. What each means on each workload is in README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"cols_per_s", "1/s"},
	{"cpu_us_per_col", "us"},
	{"fit_cpu_s", "s"},
	{"quality", "ratio"},
}

// perLayer lists the per-layer metrics of the traced run. Every traced run
// prints all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.search_http_ms", "ms"},
	{"serve.columns_http_ms", "ms"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.signatures_ms", "ms"},
	{"serve.cache_lookup_ms", "ms"},
	{"serve.search_embed_ms", "ms"},
	{"serve.scatter_ms", "ms"},
	{"serve.merge_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.mean_batch_cols", "count"},
	{"shard.max_shard_ms", "ms"},
	{"proxy.backend_ms", "ms"},
	{"proxy.overhead_ms", "ms"},
	{"ann.search_calls", "count"},
	{"ann.search_us_per_query", "us"},
	{"ann.search_busy_share", "ratio"},
	{"ann.add_us_per_vec", "us"},
	{"ann.remove_calls", "count"},
	{"ann.rebuild_ms", "ms"},
	{"catalog.journal_bytes_per_mutation", "B"},
	{"catalog.compactions", "count"},
	{"gmm.fit_wall_s", "s"},
	{"gmm.em_iterations", "count"},
	{"gmm.converged_restarts", "count"},
	{"gmm.estep_s", "s"},
	{"gmm.mstep_s", "s"},
	{"core.signatures_s", "s"},
	{"core.embed_other_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.attempted", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.refused", "count"},
	{"loadgen.search_p50_ms", "ms"},
	{"loadgen.search_p99_ms", "ms"},
	{"loadgen.mutate_p50_ms", "ms"},
	{"loadgen.mutate_p99_ms", "ms"},
}

// overheadPrefix names the traced-minus-untraced difference of an
// end-to-end metric in the traced run.
const overheadPrefix = "trace.overhead."

// outcome is what one pass of a workload measured.
type outcome struct {
	tally tally
	// e2e holds the end-to-end metric values, by name.
	e2e map[string]float64
	// layers holds the per-layer values of a traced pass, by name.
	layers map[string]float64
	// digest pins corpus-embed's embeddings: equal at equal seeds.
	digest string
	// checkErr is the first output check that failed.
	checkErr error
	// notes are human-readable lines printed before the result: sample
	// counts, the budget table, digests.
	notes []string
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// check records the first failed output check.
func (o *outcome) check(err error) {
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
}

// env is what a workload pass runs with.
type env struct {
	p      params
	seed   int64
	d      time.Duration
	setups int
	// tr is nil in an untraced pass.
	tr *tracer
	// dir holds the pass's temporary files (catalog stores).
	dir string
}

type workload struct {
	name string
	run  func(env) (*outcome, error)
}

var workloads = []workload{
	{"search-lone", searchLone},
	{"search-scan", searchScan},
	{"ingest-mixed", ingestMixed},
	{"corpus-embed", corpusEmbed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workDir is where runs keep temporary files and spans, inside the
// checkout.
const workDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run: search-lone, search-scan, ingest-mixed or corpus-embed")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	flag.Parse()
	rep, notes, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, full, workDir)
	for _, n := range notes {
		fmt.Println(n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if rep != nil {
		line, jerr := json.Marshal(rep)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil || rep == nil || !rep.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. It returns a nil report when the run
// could not be made at all, and a report with Correct false when an
// output check or an operation failed. Temporary files and spans go
// under work.
func run(name string, seed int64, d time.Duration, traced bool, p params, work string) (*report, []string, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	e := env{p: p, seed: seed, d: d, setups: p.setups, dir: dir}
	if traced {
		// The untraced pass is the baseline of the overhead; one set-up
		// each keeps the traced run's length near two plain runs.
		e.setups = 1
	}
	base, err := w.run(e)
	if err != nil {
		return nil, nil, err
	}
	notes := base.notes
	rep := &report{Attempted: base.tally.attempted, Failed: base.tally.failed, Metrics: map[string]metric{}}
	out := base
	if traced {
		e.tr = newTracer()
		tout, err := w.run(e)
		if err != nil {
			return nil, notes, err
		}
		notes = append(notes, "-- traced pass --")
		notes = append(notes, tout.notes...)
		path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := e.tr.write(path); err != nil {
			return nil, notes, err
		}
		notes = append(notes, fmt.Sprintf("spans: %d written to %s (%d dropped)", len(e.tr.spans), path, e.tr.dropped))
		rep.Attempted += tout.tally.attempted
		rep.Failed += tout.tally.failed
		if tout.checkErr != nil && base.checkErr == nil {
			base.checkErr = tout.checkErr
		}
		out = tout
	}
	if base.checkErr != nil {
		return &report{Correct: false, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}},
			append(notes, "CHECK FAILED: "+base.checkErr.Error()), nil
	}
	if rep.Failed > 0 {
		return &report{Correct: false, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}},
			append(notes, "FAILED OPERATIONS, first: "+errString(out.tally.firstErr, base.tally.firstErr)), nil
	}
	if traced {
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{Value: out.layers[m.name], Unit: m.unit}
		}
		for _, m := range endToEnd {
			rep.Metrics[overheadPrefix+m.name] = metric{Value: out.e2e[m.name] - base.e2e[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, notes, fmt.Errorf("workload %s measured no valid %s (%v)", name, m.name, v)
			}
			rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	rep.Correct = true
	notes = append(notes, summary(rep))
	return rep, notes, nil
}

func errString(errs ...error) string {
	for _, e := range errs {
		if e != nil {
			return e.Error()
		}
	}
	return "unknown"
}

// summary renders the metrics as an aligned table, in name order.
func summary(r *report) string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	return strings.TrimRight(b.String(), "\n")
}

// errCheck marks a failed output check.
var errCheck = errors.New("output check failed")

func checkf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, a...))
}
