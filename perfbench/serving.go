package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/catalog"
	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/obs"
	"github.com/gem-embeddings/gem/internal/pool"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/shard"
	"github.com/gem-embeddings/gem/internal/table"
)

// workers is the pool width everywhere: the reference machine has 2 cores.
const workers = 2

// serveFit fits the serving workloads' mixture: 8 components, 1 restart,
// an 8,000-value subsample of a 2,000-column corpus (the shape of the CI
// smokes), with the pool at the benchmark's width. The fit's times go to
// ft.
func serveFit(fitCorpus *table.Dataset, seed int64, ft *fitTimes) (*core.Embedder, error) {
	emb, err := core.NewEmbedder(core.Config{
		Components:     8,
		Restarts:       1,
		Seed:           seed,
		SubsampleStack: 8000,
		Workers:        workers,
	})
	if err != nil {
		return nil, err
	}
	if err := ft.fit(emb, fitCorpus); err != nil {
		return nil, err
	}
	return emb, nil
}

// fitColumns is the size of the corpus every serving workload fits on.
const fitColumns = 2000

// fitCorpusFor returns the fit sample for a catalog corpus: its first
// fitColumns columns, or data.ScalabilityDataset at that size when the
// catalog is smaller (tiny test sizes).
func fitCorpusFor(cat *table.Dataset, seed int64) *table.Dataset {
	if len(cat.Columns) >= fitColumns {
		return &table.Dataset{Name: cat.Name, Columns: cat.Columns[:fitColumns]}
	}
	return data.ScalabilityDataset(fitColumns, seed)
}

// backend is one shard server assembled the way gemserve -catalog does
// it: an HNSW index per shard (cosine, float64), a durable store per shard
// under a fresh directory, the default batch window and cache, and a
// metrics registry, served over a loopback listener.
type backend struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dir    string
	stores []*catalog.Store
	errc   chan error
}

// startBackend assembles and starts a backend with the given shard count.
// With a non-nil tracer every index is wrapped in a timedIndex feeding
// ctr, and the handler is tagged with request ids.
func startBackend(emb *core.Embedder, shards int, seed int64, parent string, tr *tracer, ctr *annCounters) (*backend, error) {
	dir, err := os.MkdirTemp(parent, "stores-")
	if err != nil {
		return nil, err
	}
	b := &backend{dir: dir}
	fail := func(err error) (*backend, error) {
		b.close()
		return nil, err
	}
	fp, err := emb.Fingerprint()
	if err != nil {
		return fail(err)
	}
	p := pool.New(workers)
	idxs := make([]ann.Index, shards)
	for i := range idxs {
		h, err := ann.NewHNSW(ann.HNSWConfig{Metric: ann.Cosine, Seed: seed, Precision: ann.Float64}, p)
		if err != nil {
			return fail(err)
		}
		idxs[i] = h
		if tr != nil {
			idxs[i] = &timedIndex{Index: h, ctr: ctr, tr: tr}
		}
	}
	b.stores = make([]*catalog.Store, shards)
	for i := range b.stores {
		st, err := catalog.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)),
			serve.StoreIdentityShard(fp, idxs[i], i, shards))
		if err != nil {
			return fail(err)
		}
		b.stores[i] = st
	}
	cfg := serve.Config{CompactEvery: 1024, Metrics: obs.NewRegistry()}
	if shards == 1 {
		// gemserve's unsharded path: one index and its store.
		cfg.Index, cfg.Store = idxs[0], b.stores[0]
	} else {
		cat, err := shard.New(shard.Config{Indexes: idxs, Stores: b.stores, Pool: p})
		if err != nil {
			return fail(err)
		}
		cfg.Catalog = cat
	}
	if b.srv, err = serve.New(emb, cfg); err != nil {
		return fail(err)
	}
	if b.hs, b.url, b.errc, err = listen(tagged(b.srv.Handler(), tr, "backend.request")); err != nil {
		return fail(err)
	}
	return b, nil
}

// served is a fitted embedder and the backend serving it.
type served struct {
	emb *core.Embedder
	b   *backend
}

// setUpServed sets a backend up e.setups times (see repeatSetup): fit,
// start with the given shard count, preload cols. Fit times go to fits.
func setUpServed(e env, fitDS *table.Dataset, cols []table.Column, shards int, ctr *annCounters, fits *fitTimes) (served, []float64, error) {
	return repeatSetup(e.setups, func(i int) (served, error) {
		emb, err := serveFit(fitDS, fitSeed(e.seed, i, e.setups), fits)
		if err != nil {
			return served{}, err
		}
		b, err := startBackend(emb, shards, e.seed, e.dir, e.tr, ctr)
		if err != nil {
			return served{}, err
		}
		if err := b.preload(cols); err != nil {
			b.close()
			return served{}, err
		}
		return served{emb, b}, nil
	}, func(s served) { s.b.close() })
}

// listen serves h on a loopback port with gemserve's server timeouts.
func listen(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), errc, nil
}

// shutdown stops an http.Server started by listen and waits for Serve to
// return.
func shutdown(hs *http.Server, errc chan error) {
	if hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-errc
}

// close stops the listener, the server and the stores, and deletes the
// store directory.
func (b *backend) close() {
	shutdown(b.hs, b.errc)
	if b.srv != nil {
		b.srv.Close()
	}
	for _, st := range b.stores {
		if st != nil {
			st.Close()
		}
	}
	os.RemoveAll(b.dir)
}

// preload enrolls cols through Server.AddColumns in request-sized chunks.
func (b *backend) preload(cols []table.Column) error {
	const chunk = 256
	for i := 0; i < len(cols); i += chunk {
		j := min(i+chunk, len(cols))
		if _, err := b.srv.AddColumns(context.Background(), cols[i:j]); err != nil {
			return fmt.Errorf("preloading columns %d..%d: %w", i, j, err)
		}
	}
	return nil
}

// journalBytes sums the sizes of the backend's shard journals.
func (b *backend) journalBytes() int64 {
	var n int64
	for i := range b.stores {
		if fi, err := os.Stat(filepath.Join(b.dir, fmt.Sprintf("shard-%03d", i), "journal.gemcat")); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// newClient returns the load generator's HTTP client: at most conns
// connections to any one server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// errRefused marks an answer the server gave as overload (429 or 503).
var errRefused = errors.New("refused")

// do issues one request and returns the body of a 2xx answer. Nonzero
// reqID and parent travel in the tracing headers.
func do(c *http.Client, method, url string, body []byte, reqID, parent int64) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatInt(reqID, 10))
		req.Header.Set(parentHeader, strconv.FormatInt(parent, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w: %s %s: status %d", errRefused, method, url, resp.StatusCode)
	case resp.StatusCode/100 != 2:
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// wireColumn is the JSON shape of one column on the serving API.
type wireColumn struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

func wire(c table.Column) wireColumn { return wireColumn{Name: c.Name, Values: c.Values} }

// hit is the part of one search result the checks read.
type hit struct {
	Name string  `json:"name"`
	Dist float64 `json:"dist"`
}

// metricSet holds the samples of a Prometheus text exposition by series
// ("name{labels}").
type metricSet map[string]float64

// scrape reads GET /metrics from a server: the same instruments an
// operator's dashboard reads.
func scrape(c *http.Client, base string) (metricSet, error) {
	body, err := do(c, http.MethodGet, base+"/metrics", nil, 0, 0)
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	for _, line := range strings.Split(string(body), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			m[line[:sp]] = v
		}
	}
	return m, nil
}

// minus returns m - o per series.
func (m metricSet) minus(o metricSet) metricSet {
	d := metricSet{}
	for k, v := range m {
		d[k] = v - o[k]
	}
	return d
}

// mean returns a histogram's mean over the series (sum/count), in ms.
func (m metricSet) meanMs(name, labels string) float64 {
	n := m[name+"_count"+labels]
	if n == 0 {
		return 0
	}
	return m[name+"_sum"+labels] / n * 1000
}

// serverStats reads GET /stats.
func serverStats(c *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	body, err := do(c, http.MethodGet, base+"/stats", nil, 0, 0)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}
