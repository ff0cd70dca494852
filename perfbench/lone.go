package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/gem-embeddings/gem/internal/table"
)

// searchLone: one closed-loop caller sends single-column /search requests
// (k=10), each for a fresh 500-value column, to a 1-shard durable server
// preloaded with the catalog. Every request misses the embedding cache,
// and store mode never enrolls queries, so the catalog stays fixed. The
// time goes to the embed path (JSON decode, content key, batch wait,
// signatures); the ANN scan over 2,000 columns is a small share.
func searchLone(e env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	seen := map[contentKey]bool{}
	cat := corpus(e.p.loneCatalog, e.seed, seen)
	fitDS := fitCorpusFor(cat, e.seed)
	ctr := &annCounters{}
	var fits fitTimes
	s, setups, err := setUpServed(e, fitDS, cat.Columns, 1, ctr, &fits)
	if err != nil {
		return nil, err
	}
	defer s.b.close()
	o.e2e["setup_s"] = median(setups)
	o.notef("%s", setupNote(setups))
	o.setFits(fits)

	// Query i is drawn from its own seeded stream, so it is the same
	// column whatever the timing of the run.
	query := func(i int) table.Column {
		rng := rand.New(rand.NewSource(e.seed*1_000_003 + int64(i)))
		return freshColumn(rng, fmt.Sprintf("q%d", i), e.p.loneQueryValues)
	}
	var mu sync.Mutex
	answers := map[int][]hit{}
	c := newClient(1)
	defer c.CloseIdleConnections()
	pl := func(i int) request {
		body, _ := json.Marshal(struct {
			Column wireColumn `json:"column"`
			K      int        `json:"k"`
		}{wire(query(i)), k})
		return request{kind: opSearch, method: http.MethodPost, url: s.b.url + "/search", body: body,
			after: func(resp []byte) error {
				var r struct {
					Results []hit `json:"results"`
				}
				if err := json.Unmarshal(resp, &r); err != nil {
					return fmt.Errorf("decoding /search answer: %w", err)
				}
				if i < e.p.recallSample {
					mu.Lock()
					answers[i] = r.Results
					mu.Unlock()
				}
				return nil
			}}
	}

	m0, err := scrapeEach(c, s.b.url)
	if err != nil {
		return nil, err
	}
	a0, u0, st0 := ctr.snapshot(), readUsage(), time.Now()
	rs := closedLoop(c, 1, e.d, e.tr, pl)
	elapsed := time.Since(st0)
	u, a := readUsage().minus(u0), ctr.snapshot().minus(a0)
	m1, err := scrapeEach(c, s.b.url)
	if err != nil {
		return nil, err
	}
	o.setLatency(rs, st0, u, func(opResult) float64 { return 1 })
	o.e2e["rss_mb"] = peakRSSMB()

	ref, err := newReference(s.emb, cat.Columns)
	if err != nil {
		return nil, err
	}
	pos := ref.positions()
	var sum float64
	n := 0
	for i := 0; i < e.p.recallSample; i++ {
		hits, ok := answers[i]
		if !ok {
			continue
		}
		q, err := embedColumns(s.emb, []table.Column{query(i)})
		if err != nil {
			return nil, err
		}
		r, err := ref.checkHits(q[0], fmt.Sprintf("q%d", i), nil, hits, pos)
		if err != nil {
			o.check(err)
			break
		}
		sum += r
		n++
	}
	if n > 0 {
		o.e2e["quality"] = sum / float64(n)
	}
	o.check(checkRecall(o.e2e["quality"], n))
	o.notef("quality: recall@%d %.4f over %d fresh queries against an exact float64 Flat", k, o.e2e["quality"], n)

	if e.tr != nil {
		o.setLoadgen(rs)
		o.setRuntime(u, o.tally.attempted)
		o.setAnn(a, elapsed)
		o.setFit(s.emb.FitStats())
		o.setServe(deltas(m1, m0), []int{1})
		o.budget(true)
	}
	return o, nil
}
