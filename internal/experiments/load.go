package experiments

// Closed-loop load evaluation of the sharded serving path: a warm server
// over an N-shard catalog (real per-shard snapshot+journal stores, so the
// measured path is the durable one gemserve -shards runs) absorbs a mixed
// add/remove/search stream from concurrent closed-loop clients while one
// open-loop client probes at a fixed rate. The harness reports throughput
// plus search-latency percentiles and checks them against optional SLO
// thresholds; cmd/gembench's -exp load wraps this and CI gates the
// resulting BENCH_10.json against its checked-in baseline.
//
// Op streams are deterministic in (options, seed): each client owns a
// pregenerated sequence whose removals target columns that same client
// added (by name, so the op is valid no matter how the clients
// interleave). Wall-clock numbers (QPS, percentiles) are machine-
// dependent; the op counts and the final catalog size are not.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/shard"
	"github.com/gem-embeddings/gem/internal/stats"
	"github.com/gem-embeddings/gem/internal/table"
)

// LoadSLO carries latency ceilings in milliseconds for the closed-loop
// search stream; a zero field is not checked.
type LoadSLO struct {
	P50Ms, P95Ms, P99Ms float64
}

// LoadOptions scales the load evaluation.
type LoadOptions struct {
	Options
	// Columns is the catalog size preloaded before traffic starts.
	// 0 defaults to 150·Scale (min 40).
	Columns int
	// Ops is the total closed-loop operation count across all clients.
	// 0 defaults to 400·Scale (min 120).
	Ops int
	// Clients is the number of concurrent closed-loop clients. Default 6.
	Clients int
	// Shards is the catalog shard count. Default 2.
	Shards int
	// SearchFrac, AddFrac and RemoveFrac split the op stream. They must be
	// non-negative and sum to 1 (within rounding); all-zero defaults to
	// 0.75/0.15/0.10.
	SearchFrac, AddFrac, RemoveFrac float64
	// K is the /search depth. Default 5.
	K int
	// OpenLoopQPS is the fixed request rate of the concurrent open-loop
	// probe client. 0 defaults to 50; negative disables the probe.
	OpenLoopQPS float64
	// SLO holds optional latency ceilings; breaches are recorded in the
	// result (and fail the CI gate when present in the baseline report).
	SLO LoadSLO
}

func (o *LoadOptions) fillDefaults() error {
	o.Options.FillDefaults()
	if o.Columns <= 0 {
		o.Columns = int(150 * o.Scale)
		if o.Columns < 40 {
			o.Columns = 40
		}
	}
	if o.Ops <= 0 {
		o.Ops = int(400 * o.Scale)
		if o.Ops < 120 {
			o.Ops = 120
		}
	}
	if o.Clients <= 0 {
		o.Clients = 6
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.SearchFrac == 0 && o.AddFrac == 0 && o.RemoveFrac == 0 {
		o.SearchFrac, o.AddFrac, o.RemoveFrac = 0.75, 0.15, 0.10
	}
	if o.SearchFrac < 0 || o.AddFrac < 0 || o.RemoveFrac < 0 {
		return fmt.Errorf("%w: traffic fractions must be non-negative", ErrRun)
	}
	if s := o.SearchFrac + o.AddFrac + o.RemoveFrac; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("%w: traffic fractions sum to %.3f, want 1", ErrRun, s)
	}
	if o.K <= 0 {
		o.K = 5
	}
	if o.OpenLoopQPS == 0 {
		o.OpenLoopQPS = 50
	}
	return nil
}

// LoadResult reports one load evaluation run.
type LoadResult struct {
	Columns, Ops, Clients, Shards, K, Dim int
	SearchFrac, AddFrac, RemoveFrac       float64
	// Searches, Adds and Removes are the realized closed-loop op counts
	// (deterministic in options and seed).
	Searches, Adds, Removes int
	// QPS is closed-loop operations per wall-clock second.
	QPS float64
	// SearchP50Ms/P95Ms/P99Ms are closed-loop search latency percentiles.
	SearchP50Ms, SearchP95Ms, SearchP99Ms float64
	// MutateP99Ms is the p99 over adds and removes (journaled writes).
	MutateP99Ms float64
	// OpenLoopQPS is the requested probe rate; AchievedQPS what the probe
	// realized; OpenLoopP99Ms its latency tail.
	OpenLoopQPS, OpenLoopAchievedQPS, OpenLoopP99Ms float64
	// SLO echoes the configured ceilings; SLOViolations lists breaches.
	SLO           LoadSLO
	SLOViolations []string
	// LiveColumns is the catalog size after the run (preload + adds -
	// removes; deterministic).
	LiveColumns int
}

// String renders the result as a small text table.
func (r *LoadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load eval: %d-column catalog, %d shards, %d ops x %d clients (search/add/remove %.2f/%.2f/%.2f), k=%d, dim %d\n",
		r.Columns, r.Shards, r.Ops, r.Clients, r.SearchFrac, r.AddFrac, r.RemoveFrac, r.K, r.Dim)
	fmt.Fprintf(&b, "  closed loop: %8.0f qps  (%d searches, %d adds, %d removes; %d live after)\n",
		r.QPS, r.Searches, r.Adds, r.Removes, r.LiveColumns)
	fmt.Fprintf(&b, "  search ms:   p50 %7.3f  p95 %7.3f  p99 %7.3f   mutate p99 %7.3f\n",
		r.SearchP50Ms, r.SearchP95Ms, r.SearchP99Ms, r.MutateP99Ms)
	if r.OpenLoopQPS > 0 {
		fmt.Fprintf(&b, "  open loop:   %6.1f qps requested, %6.1f achieved, p99 %7.3f ms\n",
			r.OpenLoopQPS, r.OpenLoopAchievedQPS, r.OpenLoopP99Ms)
	}
	for _, v := range r.SLOViolations {
		fmt.Fprintf(&b, "  SLO VIOLATION: %s\n", v)
	}
	return b.String()
}

// loadOp is one pregenerated closed-loop operation.
type loadOp struct {
	kind byte // 's' search, 'a' add, 'r' remove
	col  table.Column
	name string // remove target
}

// LoadEval fits a warm embedder, assembles a sharded durable server in a
// temporary directory, preloads the catalog and replays the mixed load.
func LoadEval(opts LoadOptions) (*LoadResult, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ds, err := catalog.Synthetic(opts.Columns, opts.Seed).Load()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}
	warm, err := core.NewEmbedder(opts.gemConfig(core.Distributional|core.Statistical, core.Concatenation))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}
	if err := warm.Fit(ds); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}
	fp, err := warm.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}

	// The measured path is the durable one: per-shard snapshot+journal
	// stores on real files, exactly what gemserve -shards N serves from.
	dir, err := os.MkdirTemp("", "gemload")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}
	defer os.RemoveAll(dir)
	p := pool.New(opts.Workers)
	idxs := make([]ann.Index, opts.Shards)
	stores := make([]*catalog.Store, opts.Shards)
	defer func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()
	for i := range idxs {
		if idxs[i], err = ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine, Seed: opts.Seed}, p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRun, err)
		}
		stores[i], err = catalog.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)),
			serve.StoreIdentityShard(fp, idxs[i], i, opts.Shards))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRun, err)
		}
	}
	cat, err := shard.New(shard.Config{Indexes: idxs, Stores: stores, Pool: p})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}
	srv, err := serve.New(warm, serve.Config{Catalog: cat})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRun, err)
	}
	defer srv.Close()
	if _, err := srv.AddColumns(context.Background(), ds.Columns); err != nil {
		return nil, fmt.Errorf("%w: preloading catalog: %v", ErrRun, err)
	}

	streams, counts := loadStreams(opts, ds)
	result := &LoadResult{
		Columns: opts.Columns, Ops: opts.Ops, Clients: opts.Clients,
		Shards: opts.Shards, K: opts.K, Dim: srv.Dim(),
		SearchFrac: opts.SearchFrac, AddFrac: opts.AddFrac, RemoveFrac: opts.RemoveFrac,
		Searches: counts[0], Adds: counts[1], Removes: counts[2],
		OpenLoopQPS: math.Max(opts.OpenLoopQPS, 0),
		SLO:         opts.SLO,
	}

	// Replay: closed-loop clients drain their streams back to back while
	// the open-loop probe fires at its fixed rate until they finish.
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		searchLat  []float64
		mutateLat  []float64
		clientErrs = make([]error, len(streams))
	)
	done := make(chan struct{})
	var probeLat []float64
	var probeCount int
	probeDone := make(chan struct{})
	start := time.Now()
	if opts.OpenLoopQPS > 0 {
		go func() {
			defer close(probeDone)
			interval := time.Duration(float64(time.Second) / opts.OpenLoopQPS)
			rng := rand.New(rand.NewSource(opts.Seed ^ 0x09e2))
			next := time.Now()
			for {
				select {
				case <-done:
					return
				default:
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				col := ds.Columns[rng.Intn(len(ds.Columns))]
				t0 := time.Now()
				if _, err := srv.Search(context.Background(), col, opts.K); err != nil {
					continue // probe errors surface via the closed loop
				}
				probeLat = append(probeLat, float64(time.Since(t0))/float64(time.Millisecond))
				probeCount++
			}
		}()
	} else {
		close(probeDone)
	}
	for c, ops := range streams {
		wg.Add(1)
		go func(c int, ops []loadOp) {
			defer wg.Done()
			sl := make([]float64, 0, len(ops))
			ml := make([]float64, 0, len(ops))
			for _, op := range ops {
				t0 := time.Now()
				var err error
				switch op.kind {
				case 's':
					_, err = srv.Search(context.Background(), op.col, opts.K)
					sl = append(sl, float64(time.Since(t0))/float64(time.Millisecond))
				case 'a':
					_, err = srv.AddColumns(context.Background(), []table.Column{op.col})
					ml = append(ml, float64(time.Since(t0))/float64(time.Millisecond))
				case 'r':
					_, err = srv.RemoveColumns(op.name)
					ml = append(ml, float64(time.Since(t0))/float64(time.Millisecond))
				}
				if err != nil {
					clientErrs[c] = fmt.Errorf("client %d %c op: %w", c, op.kind, err)
					return
				}
			}
			mu.Lock()
			searchLat = append(searchLat, sl...)
			mutateLat = append(mutateLat, ml...)
			mu.Unlock()
		}(c, ops)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(done)
	<-probeDone
	for _, err := range clientErrs {
		if err != nil {
			return nil, fmt.Errorf("%w: load replay: %v", ErrRun, err)
		}
	}

	result.QPS = float64(result.Searches+result.Adds+result.Removes) / elapsed
	result.SearchP50Ms = percentileMs(searchLat, 0.50)
	result.SearchP95Ms = percentileMs(searchLat, 0.95)
	result.SearchP99Ms = percentileMs(searchLat, 0.99)
	result.MutateP99Ms = percentileMs(mutateLat, 0.99)
	if opts.OpenLoopQPS > 0 && elapsed > 0 {
		result.OpenLoopAchievedQPS = float64(probeCount) / elapsed
		result.OpenLoopP99Ms = percentileMs(probeLat, 0.99)
	}
	result.LiveColumns = srv.IndexLen()
	if want := opts.Columns + result.Adds - result.Removes; result.LiveColumns != want {
		return nil, fmt.Errorf("%w: load replay left %d live columns, want %d", ErrRun, result.LiveColumns, want)
	}
	result.SLOViolations = checkSLO(opts.SLO, result)
	return result, nil
}

// loadStreams pregenerates one deterministic op stream per client and
// returns the realized (searches, adds, removes) counts. Removals target
// columns the same client added earlier, by name, so every op is valid
// under any interleaving; a remove drawn before its client has live adds
// degrades to an add.
func loadStreams(opts LoadOptions, ds *table.Dataset) ([][]loadOp, [3]int) {
	streams := make([][]loadOp, opts.Clients)
	var counts [3]int
	per := opts.Ops / opts.Clients
	extra := opts.Ops % opts.Clients
	for c := range streams {
		n := per
		if c < extra {
			n++
		}
		rng := rand.New(rand.NewSource(opts.Seed ^ int64(0x10ad<<16) ^ int64(c)))
		ops := make([]loadOp, 0, n)
		var pending []string // this client's live added columns
		seq := 0
		for len(ops) < n {
			r := rng.Float64()
			switch {
			case r < opts.SearchFrac:
				ops = append(ops, loadOp{kind: 's', col: ds.Columns[rng.Intn(len(ds.Columns))]})
				counts[0]++
			case r < opts.SearchFrac+opts.AddFrac || len(pending) == 0:
				name := fmt.Sprintf("load-c%d-%d", c, seq)
				seq++
				vals := make([]float64, 48)
				for i := range vals {
					vals[i] = rng.NormFloat64() * float64(1+c)
				}
				ops = append(ops, loadOp{kind: 'a', col: table.Column{Name: name, Values: vals}})
				pending = append(pending, name)
				counts[1]++
			default:
				name := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				ops = append(ops, loadOp{kind: 'r', name: name})
				counts[2]++
			}
		}
		streams[c] = ops
	}
	return streams, counts
}

// percentileMs is stats.Percentile for p in [0,1]; empty samples report 0.
func percentileMs(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	// Percentile fails only on an empty sample or p outside [0,100];
	// callers pass p in [0,1].
	v, _ := stats.Percentile(sample, p*100)
	return v
}

// checkSLO lists the configured latency ceilings the run breached.
func checkSLO(slo LoadSLO, r *LoadResult) []string {
	var v []string
	for _, c := range []struct {
		name       string
		limit, got float64
	}{
		{"search p50", slo.P50Ms, r.SearchP50Ms},
		{"search p95", slo.P95Ms, r.SearchP95Ms},
		{"search p99", slo.P99Ms, r.SearchP99Ms},
	} {
		if c.limit > 0 && c.got > c.limit {
			v = append(v, fmt.Sprintf("%s %.3f ms exceeds SLO %.3f ms", c.name, c.got, c.limit))
		}
	}
	return v
}
