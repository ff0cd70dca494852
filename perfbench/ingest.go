package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/table"
)

// ingestBlock is ingest-mixed's op mix: every run of 10 consecutive
// operations holds exactly 5 adds of a fresh 4-column table, 3 removes of
// a column this run added and 2 searches, in a seeded order. An exact mix
// keeps the latency percentiles, which mix the op kinds, from moving with
// the draw.
var ingestBlock = []ingestKind{
	ingestAdd, ingestAdd, ingestAdd, ingestAdd, ingestAdd,
	ingestRemove, ingestRemove, ingestRemove,
	ingestSearch, ingestSearch,
}

const (
	ingestTableCols = 4
	// ingestProbe is how many searches measure recall after the load.
	ingestProbe = 128
)

// ingestMixed: an open loop of independent clients at a fixed rate over
// at most 2 connections, timed from each operation's due time, against one
// durable 2-shard server preloaded with the catalog. Half the operations
// add a fresh 4-column table, 30% remove one column an earlier add of this
// run enrolled, and 20% search for a preloaded column. Writes go through
// the journal, the HNSW insert and tombstone paths and the shard routing;
// concurrent adds coalesce in the batcher.
func ingestMixed(e env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	seen := map[contentKey]bool{}
	cat := corpus(e.p.ingestPreload, e.seed, seen)
	fitDS := fitCorpusFor(cat, e.seed)
	ctr := &annCounters{}
	var fits fitTimes
	s, setups, err := setUpServed(e, fitDS, cat.Columns, 2, ctr, &fits)
	if err != nil {
		return nil, err
	}
	defer s.b.close()
	o.e2e["setup_s"] = median(setups)
	o.notef("%s", setupNote(setups))
	o.setFits(fits)

	// The op plan, drawn up front from the seed.
	sched := arrivals(e.p.ingestRate, e.d)
	ops := planIngest(len(sched), rand.New(rand.NewSource(e.seed+1)), len(cat.Columns), seen)
	var adds, removes, searches int64
	removed := map[string]bool{}
	for _, op := range ops {
		switch op.kind {
		case ingestAdd:
			adds++
		case ingestRemove:
			removes++
			removed[op.target] = true
		default:
			searches++
		}
	}
	done := make([]chan struct{}, len(ops))
	for i, op := range ops {
		if op.kind == ingestAdd {
			done[i] = make(chan struct{})
		}
	}
	base := s.b.url
	pl := func(i int) request {
		op := ops[i]
		switch op.kind {
		case ingestAdd:
			cols := make([]wireColumn, len(op.cols))
			for j, c := range op.cols {
				cols[j] = wire(c)
			}
			body, _ := json.Marshal(struct {
				Columns []wireColumn `json:"columns"`
			}{cols})
			return request{kind: opMutate, method: http.MethodPost, url: base + "/columns", body: body,
				finally: func() { close(done[i]) },
				after: func(resp []byte) error {
					var r struct {
						IDs []int `json:"ids"`
					}
					if err := json.Unmarshal(resp, &r); err != nil || len(r.IDs) != len(op.cols) {
						return fmt.Errorf("add %d: answer %q does not enroll %d columns", i, resp, len(op.cols))
					}
					return nil
				}}
		case ingestRemove:
			return request{kind: opMutate, method: http.MethodDelete, url: base + "/columns/" + url.PathEscape(op.target),
				before: func() error {
					// The add this remove undoes was dispatched earlier and
					// is done or in flight on the other connection.
					select {
					case <-done[op.targetOp]:
						return nil
					case <-time.After(30 * time.Second):
						return fmt.Errorf("remove %d: add %d never completed", i, op.targetOp)
					}
				},
				after: func(resp []byte) error {
					var r struct {
						Removed []int `json:"removed"`
					}
					if err := json.Unmarshal(resp, &r); err != nil || len(r.Removed) != 1 {
						return fmt.Errorf("remove %d: answer %q does not remove exactly one column", i, resp)
					}
					return nil
				}}
		default:
			body, _ := json.Marshal(struct {
				Column wireColumn `json:"column"`
				K      int        `json:"k"`
			}{wire(cat.Columns[op.query]), k})
			return request{kind: opSearch, method: http.MethodPost, url: base + "/search", body: body,
				after: func(resp []byte) error {
					var r struct {
						Results []hit `json:"results"`
					}
					if err := json.Unmarshal(resp, &r); err != nil || len(r.Results) != k {
						return fmt.Errorf("search %d: answer %q does not hold %d hits", i, resp, k)
					}
					return nil
				}}
		}
	}

	c := newClient(2)
	defer c.CloseIdleConnections()
	st0, err := serverStats(c, base)
	if err != nil {
		return nil, err
	}
	m0, err := scrapeEach(c, base)
	if err != nil {
		return nil, err
	}
	j0 := s.b.journalBytes()
	a0, u0, t0 := ctr.snapshot(), readUsage(), time.Now()
	rs := openLoop(c, 2, sched, e.tr, pl)
	elapsed := time.Since(t0)
	u, a := readUsage().minus(u0), ctr.snapshot().minus(a0)
	j1 := s.b.journalBytes()
	m1, err := scrapeEach(c, base)
	if err != nil {
		return nil, err
	}
	st1, err := serverStats(c, base)
	if err != nil {
		return nil, err
	}
	o.setLatency(rs, t0, u, func(r opResult) float64 {
		if ops[r.index].kind == ingestAdd {
			return ingestTableCols
		}
		return 1
	})
	// The median of all operations falls between the searches' and the
	// adds' latencies and jumps between them from run to run; the median
	// of the writes is the workload's number, the searches' is per-layer.
	o.e2e["p50_ms"] = median(latencies(rs, opMutate))
	o.notef("p50 of %d adds and removes: %.3f ms", int(adds+removes), o.e2e["p50_ms"])
	o.e2e["rss_mb"] = peakRSSMB()
	o.notef("ops: %d at %.0f/s over %.1f s: %d adds of %d columns, %d removes, %d searches",
		len(ops), e.p.ingestRate, elapsed.Seconds(), adds, ingestTableCols, removes, searches)

	o.check(checkLive(st1, int64(len(cat.Columns)), ingestTableCols*adds, removes))

	// Recall after the churn: searches for preloaded columns against the
	// exact top k of the live catalog.
	all := append([]table.Column(nil), cat.Columns...)
	for _, op := range ops {
		if op.kind == ingestAdd {
			all = append(all, op.cols...)
		}
	}
	ref, err := newReference(s.emb, all)
	if err != nil {
		return nil, err
	}
	pos := ref.positions()
	prng := rand.New(rand.NewSource(e.seed + 2))
	var sum float64
	n := 0
	for q := 0; q < ingestProbe; q++ {
		ix := prng.Intn(len(cat.Columns))
		body, _ := json.Marshal(struct {
			Column wireColumn `json:"column"`
			K      int        `json:"k"`
		}{wire(cat.Columns[ix]), k})
		resp, err := do(c, http.MethodPost, base+"/search", body, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("recall probe: %w", err)
		}
		var r struct {
			Results []hit `json:"results"`
		}
		if err := json.Unmarshal(resp, &r); err != nil {
			return nil, fmt.Errorf("recall probe: %w", err)
		}
		recall, err := ref.checkHits(ref.vecs[ix], cat.Columns[ix].Name, removed, r.Results, pos)
		if err != nil {
			o.check(err)
			break
		}
		sum += recall
		n++
	}
	if n > 0 {
		o.e2e["quality"] = sum / float64(n)
	}
	o.check(checkRecall(o.e2e["quality"], n))
	o.notef("quality: recall@%d %.4f over %d searches after the churn, against an exact float64 Flat of the live catalog", k, o.e2e["quality"], n)

	if e.tr != nil {
		o.setLoadgen(rs)
		o.setRuntime(u, o.tally.attempted)
		o.setAnn(a, elapsed)
		o.setFit(s.emb.FitStats())
		o.setServe(deltas(m1, m0), []int{2})
		o.setCatalog(journalGrowth(j0, j1), ingestTableCols*adds+removes, st1.Compactions-st0.Compactions)
		o.budget(false)
	}
	return o, nil
}

// checkLive checks the server's live column count, in its index and in
// its stores, against preload + added - removed.
func checkLive(st serve.Stats, preload, added, removed int64) error {
	want := preload + added - removed
	if int64(st.IndexSize) != want || int64(st.StoreColumns) != want {
		return checkf("live columns: index %d, stores %d, want preload %d + %d added - %d removed = %d",
			st.IndexSize, st.StoreColumns, preload, added, removed, want)
	}
	return nil
}

type ingestKind int

const (
	ingestAdd ingestKind = iota
	ingestRemove
	ingestSearch
)

// ingestOp is one planned operation.
type ingestOp struct {
	kind ingestKind
	// cols are an add's fresh columns.
	cols []table.Column
	// target names a remove's column; targetOp is the add that enrolled it.
	target   string
	targetOp int
	// query is a search's preloaded column.
	query int
}

// planIngest draws n operations in shuffled blocks of ingestBlock. A
// remove picks a column of an earlier add that no earlier remove took; the
// first remove of the run trades places with the next add, so one exists.
func planIngest(n int, rng *rand.Rand, preload int, seen map[contentKey]bool) []ingestOp {
	kinds := make([]ingestKind, 0, n+len(ingestBlock))
	for len(kinds) < n {
		b := append([]ingestKind(nil), ingestBlock...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		kinds = append(kinds, b...)
	}
	kinds = kinds[:n]
	type owned struct {
		name string
		op   int
	}
	var pool []owned
	ops := make([]ingestOp, n)
	for i := range ops {
		if kinds[i] == ingestRemove && len(pool) == 0 {
			for j := i + 1; j < n; j++ {
				if kinds[j] == ingestAdd {
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
		}
		switch kinds[i] {
		case ingestAdd:
			cols := freshColumns(rng, fmt.Sprintf("a%d-", i), ingestTableCols, 0, seen)
			for _, c := range cols {
				pool = append(pool, owned{c.Name, i})
			}
			ops[i] = ingestOp{kind: ingestAdd, cols: cols}
		case ingestRemove:
			j := rng.Intn(len(pool))
			ops[i] = ingestOp{kind: ingestRemove, target: pool[j].name, targetOp: pool[j].op}
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		default:
			ops[i] = ingestOp{kind: ingestSearch, query: rng.Intn(preload)}
		}
	}
	return ops
}

// journalGrowth is the bytes appended to the journals between two sizes;
// a compaction rewrites a journal, so a shrink counts only what follows.
func journalGrowth(before, after int64) int64 {
	if after < before {
		return after
	}
	return after - before
}
