package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/table"
)

// searchScan: two closed-loop callers send batched /search requests
// (8 columns, k=10) through serve.Proxy to two durable backends that hold
// half the catalog each. Query columns cycle through a fixed hot set of
// catalog members, so after one warm-up pass every query column is an
// embedding-cache hit on both backends: the embed path is bypassed and
// the time goes to the ANN scan, the shard scatter, JSON and the proxy
// hop. Repeated batches must return byte-identical bodies.
func searchScan(e env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	seen := map[contentKey]bool{}
	cat := corpus(2*e.p.scanPerBackend, e.seed, seen)
	fitDS := fitCorpusFor(cat, e.seed)
	half := [2][]table.Column{cat.Columns[:e.p.scanPerBackend], cat.Columns[e.p.scanPerBackend:]}
	ctr := &annCounters{}
	hops := &hopRecorder{slowest: map[int64]time.Duration{}}
	type built struct {
		emb   *core.Embedder
		bs    [2]*backend
		proxy string
		hs    *http.Server
		errc  chan error
	}
	teardown := func(s built) {
		shutdown(s.hs, s.errc)
		for _, b := range s.bs {
			if b != nil {
				b.close()
			}
		}
	}
	var fits fitTimes
	n := e.scanSetupCount()
	s, setups, err := repeatSetup(n, func(i int) (built, error) {
		var s built
		emb, err := serveFit(fitDS, fitSeed(e.seed, i, n), &fits)
		if err != nil {
			return s, err
		}
		s.emb = emb
		for i := range s.bs {
			if s.bs[i], err = startBackend(emb, 1, e.seed, e.dir, e.tr, ctr); err != nil {
				teardown(s)
				return s, err
			}
		}
		// The two backends build at once, as two processes would.
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range s.bs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.bs[i].preload(half[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				teardown(s)
				return s, err
			}
		}
		pcfg := serve.ProxyConfig{Backends: []string{s.bs[0].url, s.bs[1].url}, Metrics: obs.NewRegistry()}
		if e.tr != nil {
			pcfg.Client = &http.Client{Transport: &timingTransport{next: http.DefaultTransport, tr: e.tr, rec: hops}}
		}
		p, err := serve.NewProxy(pcfg)
		if err != nil {
			teardown(s)
			return s, err
		}
		if s.hs, s.proxy, s.errc, err = listen(tagged(p.Handler(), e.tr, "proxy.request")); err != nil {
			teardown(s)
			return s, err
		}
		return s, nil
	}, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown(s)
	o.e2e["setup_s"] = median(setups)
	o.notef("%s", setupNote(setups))
	o.setFits(fits)

	// The hot set and its fixed batches.
	rng := rand.New(rand.NewSource(e.seed))
	perm := rng.Perm(len(cat.Columns))[:e.p.scanHot]
	nb := e.p.scanHot / e.p.scanBatch
	bodies := make([][]byte, nb)
	for j := range bodies {
		var cols []wireColumn
		for _, ix := range perm[j*e.p.scanBatch : (j+1)*e.p.scanBatch] {
			cols = append(cols, wire(cat.Columns[ix]))
		}
		bodies[j], _ = json.Marshal(struct {
			Columns []wireColumn `json:"columns"`
			K       int          `json:"k"`
		}{cols, k})
	}

	c := newClient(2)
	defer c.CloseIdleConnections()
	// Warm-up: one pass over the batches fills both backends' caches and
	// records each batch's answer, which every repeat must match byte for
	// byte.
	first := make([][]byte, nb)
	for j := range bodies {
		if first[j], err = do(c, http.MethodPost, s.proxy+"/search", bodies[j], 0, 0); err != nil {
			return nil, fmt.Errorf("warm-up batch %d: %w", j, err)
		}
	}
	pins := newPins(first)
	pl := func(i int) request {
		j := i % nb
		return request{kind: opSearch, method: http.MethodPost, url: s.proxy + "/search", body: bodies[j],
			after: func(resp []byte) error {
				pins.check(j, resp)
				return nil
			}}
	}

	hops.reset()
	bases := []string{s.bs[0].url, s.bs[1].url}
	m0, err := scrapeEach(c, bases...)
	if err != nil {
		return nil, err
	}
	a0, u0, st0 := ctr.snapshot(), readUsage(), time.Now()
	rs := closedLoop(c, 2, e.d, e.tr, pl)
	elapsed := time.Since(st0)
	u, a := readUsage().minus(u0), ctr.snapshot().minus(a0)
	m1, err := scrapeEach(c, bases...)
	if err != nil {
		return nil, err
	}
	o.setLatency(rs, st0, u, func(opResult) float64 { return float64(e.p.scanBatch) })
	o.e2e["rss_mb"] = peakRSSMB()
	o.check(pins.err())
	o.notef("determinism: %d batches repeated %d times, byte-identical: %v", nb, len(rs)/nb, pins.err() == nil)

	// Recall of the warm-up answers against the exact top k of the whole
	// catalog, each query's own column excluded.
	ref, err := newReference(s.emb, cat.Columns)
	if err != nil {
		return nil, err
	}
	pos := ref.positions()
	var sum float64
	checked := 0
	for j, body := range first {
		recall, err := checkBatch(ref, pos, body, perm[j*e.p.scanBatch:(j+1)*e.p.scanBatch])
		if err != nil {
			o.check(err)
			break
		}
		sum += recall
		checked += e.p.scanBatch
	}
	if checked > 0 {
		o.e2e["quality"] = sum / float64(checked)
	}
	o.check(checkRecall(o.e2e["quality"], checked))
	o.notef("quality: recall@%d %.4f over %d hot-set queries against an exact float64 Flat (self excluded)", k, o.e2e["quality"], checked)

	if e.tr != nil {
		lat := map[int64]time.Duration{}
		for _, r := range rs {
			lat[int64(r.index)+1] = r.lat
		}
		o.setLoadgen(rs)
		o.setRuntime(u, o.tally.attempted)
		o.setAnn(a, elapsed)
		o.setFit(s.emb.FitStats())
		o.setServe(deltas(m1, m0), []int{1, 1})
		o.setProxy(hops, lat)
		o.budget(true)
	}
	return o, nil
}

// scanSetupCount is the number of set-ups a search-scan pass makes.
func (e env) scanSetupCount() int { return min(e.setups, e.p.scanSetups) }

// checkBatch checks one batched proxy answer: one entry per query column
// in request order, each a valid hit list for its column.
func checkBatch(ref *reference, pos map[string]int, body []byte, queries []int) (float64, error) {
	var r struct {
		Results []struct {
			Column  string `json:"column"`
			Results []hit  `json:"results"`
		} `json:"results"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&r); err != nil {
		return 0, checkf("decoding batched answer: %v", err)
	}
	if len(r.Results) != len(queries) {
		return 0, checkf("batched answer has %d entries for %d query columns", len(r.Results), len(queries))
	}
	var sum float64
	for i, ix := range queries {
		name := ref.names[ix]
		if r.Results[i].Column != name {
			return 0, checkf("entry %d answers %q, want %q", i, r.Results[i].Column, name)
		}
		recall, err := ref.checkHits(ref.vecs[ix], name, nil, r.Results[i].Results, pos)
		if err != nil {
			return 0, err
		}
		sum += recall
	}
	return sum, nil
}

// setProxy records the proxy hop numbers: the mean backend hop, and the
// mean of each request's client latency minus its slowest hop.
func (o *outcome) setProxy(h *hopRecorder, lat map[int64]time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hops > 0 {
		o.layers["proxy.backend_ms"] = float64(h.total) / 1e6 / float64(h.hops)
	}
	var sum time.Duration
	n := 0
	for id, slow := range h.slowest {
		if l, ok := lat[id]; ok {
			sum += l - slow
			n++
		}
	}
	if n > 0 {
		o.layers["proxy.overhead_ms"] = float64(sum) / 1e6 / float64(n)
	}
}

// pins holds the digest of each batch's first answer; every repeat must
// match it byte for byte (the serving determinism contract).
type pins struct {
	digests  [][32]byte
	mu       sync.Mutex
	mismatch error
}

func newPins(first [][]byte) *pins {
	p := &pins{digests: make([][32]byte, len(first))}
	for j, b := range first {
		p.digests[j] = sha256.Sum256(b)
	}
	return p
}

// check records a mismatch of batch j's answer.
func (p *pins) check(j int, body []byte) {
	if sha256.Sum256(body) == p.digests[j] {
		return
	}
	p.mu.Lock()
	if p.mismatch == nil {
		p.mismatch = checkf("batch %d answered differently on a repeat", j)
	}
	p.mu.Unlock()
}

func (p *pins) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mismatch
}
