package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/gmm"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// params fixes the sizes of every workload. full is what the benchmark
// runs; the tests run tiny.
type params struct {
	// setups is how many times a run sets a workload up; setup_s is the
	// median, and the last set-up is the one measured.
	setups int
	// scanSetups replaces setups for search-scan, whose set-up is the
	// longest.
	scanSetups int
	// recallSample is how many queries recall is measured on.
	recallSample int

	loneCatalog, loneQueryValues int

	scanPerBackend, scanHot, scanBatch int

	ingestPreload int
	ingestRate    float64

	corpusColumns, corpusTable, corpusSample int
	corpusComponents, corpusRestarts         int
}

var full = params{
	setups:       3,
	scanSetups:   2,
	recallSample: 256,

	loneCatalog: 2000, loneQueryValues: 500,

	scanPerBackend: 10000, scanHot: 256, scanBatch: 8,

	ingestPreload: 10000,
	ingestRate:    125,

	corpusColumns: 20000, corpusTable: 1000, corpusSample: 2000,
	corpusComponents: 50, corpusRestarts: 3,
}

// k is the number of hits every search asks for.
const k = 10

// repeatSetup runs build(i) for i = 0..n-1 and keeps the last result,
// tearing the others down. It returns the set-up times in seconds.
func repeatSetup[T any](n int, build func(i int) (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
			runtime.GC()
		} else {
			last = v
		}
	}
	return last, times, nil
}

// fitSeed is the mixture seed of set-up or fit i of n. EM's cost depends
// on its sample, so the repeats of a run fit different samples of the
// same corpus and their median is less tied to one draw; the last one,
// which the run measures, always uses the run's seed.
func fitSeed(seed int64, i, n int) int64 { return seed + int64(n-1-i)*7919 }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// usage is the process's resource use: heap allocations, GC pauses and
// CPU time (user + system). Differences of two readings measure a phase.
// CPU time excludes the time the hypervisor steals from the machine's
// cores, so it drifts less than wall-clock time with the neighbours' load.
type usage struct {
	mallocs, pauseNs uint64
	cpu              time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, cpu: cpuTime()}
}

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fitTimes collects the wall-clock and CPU seconds of a run's fits.
type fitTimes struct{ wall, cpu []float64 }

// fit fits emb on ds and records the fit's times.
func (f *fitTimes) fit(emb *core.Embedder, ds *table.Dataset) error {
	c0, t0 := cpuTime(), time.Now()
	if err := emb.Fit(ds); err != nil {
		return err
	}
	f.wall = append(f.wall, time.Since(t0).Seconds())
	f.cpu = append(f.cpu, (cpuTime() - c0).Seconds())
	return nil
}

// setFits records the fits: CPU seconds end to end, which exclude the
// machine's stolen time, and wall-clock seconds per layer.
func (o *outcome) setFits(f fitTimes) {
	o.e2e["fit_cpu_s"] = median(f.cpu)
	o.layers["gmm.fit_wall_s"] = median(f.wall)
	o.notef("fits: %s s wall, %s s CPU", joinSeconds(f.wall), joinSeconds(f.cpu))
}

func (a usage) minus(b usage) usage {
	return usage{mallocs: a.mallocs - b.mallocs, pauseNs: a.pauseNs - b.pauseNs, cpu: a.cpu - b.cpu}
}

func (a usage) plus(b usage) usage {
	return usage{mallocs: a.mallocs + b.mallocs, pauseNs: a.pauseNs + b.pauseNs, cpu: a.cpu + b.cpu}
}

// setRuntime records the runtime layer's per-operation numbers.
func (o *outcome) setRuntime(m usage, ops int64) {
	if ops > 0 {
		o.layers["runtime.allocs_per_op"] = float64(m.mallocs) / float64(ops)
	}
	o.layers["runtime.gc_pause_ms"] = float64(m.pauseNs) / 1e6
}

// setFit records the gmm layer's numbers from a fit's telemetry.
func (o *outcome) setFit(st *gmm.FitStats) {
	if st == nil {
		return
	}
	conv := 0
	for _, r := range st.Restarts {
		if r.Converged {
			conv++
		}
	}
	o.layers["gmm.em_iterations"] = float64(st.Iterations())
	o.layers["gmm.converged_restarts"] = float64(conv)
	o.layers["gmm.estep_s"] = st.EStepSeconds
	o.layers["gmm.mstep_s"] = st.MStepSeconds
}

// setLoadgen records the generator's own numbers and the per-kind latency
// split.
func (o *outcome) setLoadgen(rs []opResult) {
	t := count(rs)
	var late []float64
	for _, r := range rs {
		late = append(late, float64(r.late)/1e6)
	}
	o.layers["loadgen.late_p99_ms"] = percentile(late, 0.99)
	o.layers["loadgen.attempted"] = float64(t.attempted)
	o.layers["loadgen.failed"] = float64(t.failed)
	o.layers["loadgen.refused"] = float64(t.refused)
	o.layers["loadgen.p99_ms"] = percentile(latencies(rs), 0.99)
	if s := latencies(rs, opSearch); len(s) > 0 {
		o.layers["loadgen.search_p50_ms"] = median(s)
		o.layers["loadgen.search_p99_ms"] = percentile(s, 0.99)
	}
	if m := latencies(rs, opMutate); len(m) > 0 {
		o.layers["loadgen.mutate_p50_ms"] = median(m)
		o.layers["loadgen.mutate_p99_ms"] = percentile(m, 0.99)
	}
}

// setLatency records the end-to-end numbers of a serving phase that
// started at start and used u: the failure tally, the median latency, the
// process CPU time per column, and the throughput in columns per second
// (cols per successful operation) as the median over the phase's whole
// one-second windows, so a short stall of the machine moves it less than a
// mean would.
func (o *outcome) setLatency(rs []opResult, start time.Time, u usage, cols func(opResult) float64) {
	lat := latencies(rs)
	o.tally = count(rs)
	o.e2e["p50_ms"] = median(lat)
	var windows []float64
	total := 0.0
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		total += cols(r)
		w := int(r.end.Sub(start) / time.Second)
		for len(windows) <= w {
			windows = append(windows, 0)
		}
		windows[w] += cols(r)
	}
	if len(windows) > 1 {
		windows = windows[:len(windows)-1] // the last window is partial
	}
	o.e2e["cols_per_s"] = median(windows)
	if total > 0 {
		o.e2e["cpu_us_per_col"] = float64(u.cpu) / 1e3 / total
	}
	o.notef("latency: %d samples, p50 %.3f ms, p99 %.3f ms (%d beyond p99); %.1f columns/s over %d windows",
		len(lat), o.e2e["p50_ms"], percentile(lat, 0.99), len(lat)/100, o.e2e["cols_per_s"], len(windows))
}

// reference is the exact answer key: the catalog's vectors embedded by the
// benchmark through core.Embedder's single-column path (the one the
// server uses), indexed by an exact float64 ann.Flat.
type reference struct {
	emb   *core.Embedder
	names []string
	vecs  [][]float64
	flat  *ann.Flat
}

// embedColumns embeds cols as the server does: signature per column,
// standardized against the fit-time moments, L2-normalized for cosine.
func embedColumns(emb *core.Embedder, cols []table.Column) ([][]float64, error) {
	sigs, err := emb.Signatures(&table.Dataset{Name: "reference", Columns: cols})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(sigs))
	for i, s := range sigs {
		v, err := emb.EmbedSignature(s)
		if err != nil {
			return nil, err
		}
		out[i] = stats.L2Normalize(v)
	}
	return out, nil
}

func newReference(emb *core.Embedder, cols []table.Column) (*reference, error) {
	vecs, err := embedColumns(emb, cols)
	if err != nil {
		return nil, err
	}
	r := &reference{emb: emb, vecs: vecs, flat: ann.NewFlat(ann.Cosine)}
	for _, c := range cols {
		r.names = append(r.names, c.Name)
	}
	if err := r.flat.Add(vecs...); err != nil {
		return nil, err
	}
	return r, nil
}

// exact returns the names of the k nearest reference columns to q,
// skipping the column named self and any removed column.
func (r *reference) exact(q []float64, self string, removed map[string]bool) ([]string, error) {
	extra := 1 + len(removed)
	res, err := r.flat.Search(q, k+extra)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, x := range res {
		n := r.names[x.ID]
		if n == self || removed[n] {
			continue
		}
		out = append(out, n)
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// checkHits verifies one answered hit list against the exact reference:
// exactly k hits, never the query itself, ascending distances, every
// distance equal to the true cosine distance from q to the named column,
// and returns the recall of the names against the exact top k.
func (r *reference) checkHits(q []float64, self string, removed map[string]bool, hits []hit, pos map[string]int) (float64, error) {
	if len(hits) != k {
		return 0, checkf("query %q: %d hits, want %d", self, len(hits), k)
	}
	for j, h := range hits {
		i, ok := pos[h.Name]
		if !ok || removed[h.Name] {
			return 0, checkf("query %q: hit %d names %q, not a live catalog column", self, j, h.Name)
		}
		if h.Name == self {
			return 0, checkf("query %q: its own column is among its hits", self)
		}
		if j > 0 && h.Dist < hits[j-1].Dist {
			return 0, checkf("query %q: hits not in ascending distance order", self)
		}
		if want := ann.Cosine.Distance(q, r.vecs[i]); math.Abs(want-h.Dist) > 1e-9 {
			return 0, checkf("query %q: hit %q has distance %.12g, its true distance is %.12g", self, h.Name, h.Dist, want)
		}
	}
	want, err := r.exact(q, self, removed)
	if err != nil {
		return 0, err
	}
	in := map[string]bool{}
	for _, n := range want {
		in[n] = true
	}
	got := 0
	for _, h := range hits {
		if in[h.Name] {
			got++
		}
	}
	return float64(got) / float64(k), nil
}

// positions maps each reference name to its row.
func (r *reference) positions() map[string]int {
	m := make(map[string]int, len(r.names))
	for i, n := range r.names {
		m[n] = i
	}
	return m
}

// minRecall is the recall@10 below which the approximate index is judged
// broken rather than approximate.
const minRecall = 0.9

func checkRecall(recall float64, n int) error {
	if n == 0 {
		return checkf("no queries were checked for recall")
	}
	if recall < minRecall {
		return checkf("recall@%d %.4f over %d queries is below %.2f", k, recall, n, minRecall)
	}
	return nil
}

// setupNote formats the set-up times of a run.
func setupNote(times []float64) string {
	return fmt.Sprintf("setup: %s s (median %.3f s)", joinSeconds(times), median(times))
}

func joinSeconds(times []float64) string {
	parts := make([]string, len(times))
	for i, t := range times {
		parts[i] = fmt.Sprintf("%.3f", t)
	}
	return strings.Join(parts, ", ")
}
