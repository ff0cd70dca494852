package main

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/serve"
	"github.com/gem-embeddings/gem/internal/table"
)

// tiny shrinks every workload so a run takes about a second.
var tiny = params{
	setups:       2,
	scanSetups:   1,
	recallSample: 32,

	loneCatalog: 200, loneQueryValues: 100,

	scanPerBackend: 300, scanHot: 32, scanBatch: 8,

	ingestPreload: 300,
	ingestRate:    60,

	corpusColumns: 600, corpusTable: 200, corpusSample: 300,
	corpusComponents: 8, corpusRestarts: 1,
}

const tinyPhase = 500 * time.Millisecond

func TestTinyRunPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, notes, err := run(w.name, 3, tinyPhase, false, tiny, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Fatalf("report %+v, notes:\n%s", rep, strings.Join(notes, "\n"))
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end metrics", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value == 0 || math.IsNaN(got.Value) {
					t.Errorf("%s = %+v, want a nonzero value in %s", m.name, got, m.unit)
				}
			}
		})
	}
}

func TestTinyTracedRunPrintsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, notes, err := run(w.name, 3, tinyPhase, true, tiny, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("report %+v, notes:\n%s", rep, strings.Join(notes, "\n"))
			}
			if len(rep.Metrics) != len(perLayer)+len(endToEnd) {
				t.Errorf("%d metrics, want %d per-layer and %d overheads", len(rep.Metrics), len(perLayer), len(endToEnd))
			}
			for _, m := range perLayer {
				if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s = %+v, want a value in %s", m.name, got, m.unit)
				}
			}
			for _, m := range endToEnd {
				if _, ok := rep.Metrics[overheadPrefix+m.name]; !ok {
					t.Errorf("no tracing overhead for %s", m.name)
				}
			}
			// Every workload fits a mixture; the layers it stresses must
			// have been measured.
			if rep.Metrics["gmm.em_iterations"].Value == 0 {
				t.Error("no EM iterations recorded")
			}
			stressed := map[string][]string{
				"search-lone":  {"serve.search_http_ms", "serve.signatures_ms", "ann.search_calls", "shard.max_shard_ms"},
				"search-scan":  {"serve.search_http_ms", "serve.cache_hit_ratio", "ann.search_calls", "proxy.backend_ms"},
				"ingest-mixed": {"serve.columns_http_ms", "ann.add_us_per_vec", "ann.remove_calls", "catalog.journal_bytes_per_mutation"},
				"corpus-embed": {"core.signatures_s", "gmm.estep_s"},
			}[w.name]
			for _, name := range stressed {
				if rep.Metrics[name].Value == 0 {
					t.Errorf("%s is 0 on %s, which stresses that layer", name, w.name)
				}
			}
		})
	}
}

func TestCorpusDigestRepeatsAtOneSeed(t *testing.T) {
	e := env{p: tiny, seed: 5, d: time.Millisecond, setups: 1, dir: t.TempDir()}
	a, err := corpusEmbed(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpusEmbed(e)
	if err != nil {
		t.Fatal(err)
	}
	e.seed = 6
	c, err := corpusEmbed(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == "" || a.digest != b.digest {
		t.Errorf("digests %q and %q at one seed, want equal", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Error("different seeds embedded to one digest")
	}
}

func TestFailedCheckReportsNoNumbers(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{"planted", func(env) (*outcome, error) {
		o := &outcome{e2e: map[string]float64{"p50_ms": 1}, layers: map[string]float64{}, tally: tally{attempted: 3}}
		o.check(checkf("planted wrong answer"))
		return o, nil
	}}}
	rep, _, err := run("planted", 1, time.Second, false, tiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || len(rep.Metrics) != 0 || rep.Attempted != 3 {
		t.Errorf("report %+v, want a failure with no metrics", rep)
	}
}

// testReference builds an exact reference over a small fitted catalog.
func testReference(t *testing.T) (*reference, []table.Column) {
	t.Helper()
	cat := corpus(200, 9, map[contentKey]bool{})
	emb, err := serveFit(data.ScalabilityDataset(fitColumns, 9), 9, &fitTimes{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(emb, cat.Columns)
	if err != nil {
		t.Fatal(err)
	}
	return ref, cat.Columns
}

// exactHits renders the reference's own top k for column ix as hits.
func exactHits(t *testing.T, ref *reference, ix int, removed map[string]bool) []hit {
	t.Helper()
	pos := ref.positions()
	names, err := ref.exact(ref.vecs[ix], ref.names[ix], removed)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]hit, len(names))
	for i, n := range names {
		hits[i] = hit{Name: n, Dist: ann.Cosine.Distance(ref.vecs[ix], ref.vecs[pos[n]])}
	}
	return hits
}

func TestCheckHitsRejectsCorruptedHitLists(t *testing.T) {
	ref, _ := testReference(t)
	pos := ref.positions()
	const ix = 7
	good := exactHits(t, ref, ix, nil)
	recall, err := ref.checkHits(ref.vecs[ix], ref.names[ix], nil, good, pos)
	if err != nil || recall != 1 {
		t.Fatalf("exact answer: recall %v, err %v", recall, err)
	}
	// The catalog column farthest from the query, with its true distance.
	far, farDist := "", -1.0
	for i, v := range ref.vecs {
		if d := ann.Cosine.Distance(ref.vecs[ix], v); d > farDist {
			far, farDist = ref.names[i], d
		}
	}
	corrupt := map[string]func([]hit) []hit{
		"swapped name": func(h []hit) []hit { h[3].Name = far; return h },
		"wrong distance": func(h []hit) []hit {
			h[9].Dist += 1e-6
			return h
		},
		"unsorted":     func(h []hit) []hit { h[0], h[1] = h[1], h[0]; return h },
		"self":         func(h []hit) []hit { h[4].Name = ref.names[ix]; h[4].Dist = 0; return h },
		"short":        func(h []hit) []hit { return h[:k-1] },
		"unknown name": func(h []hit) []hit { h[2].Name = "nope"; return h },
	}
	for name, f := range corrupt {
		h := f(append([]hit(nil), good...))
		if _, err := ref.checkHits(ref.vecs[ix], ref.names[ix], nil, h, pos); !errors.Is(err, errCheck) {
			t.Errorf("%s: err %v, want a failed check", name, err)
		}
	}
	// A wrong column at its true distance is an approximate answer: it
	// passes the per-list checks and costs recall, which the recall floor
	// judges over all queries.
	h := append([]hit(nil), good...)
	h[k-1] = hit{Name: far, Dist: farDist}
	if recall, err := ref.checkHits(ref.vecs[ix], ref.names[ix], nil, h, pos); err != nil || recall != 1-1.0/k {
		t.Errorf("far last hit: recall %v, err %v; want %v", recall, err, 1-1.0/k)
	}
	// A removed column among the hits is a wrong answer.
	removed := map[string]bool{good[0].Name: true}
	if _, err := ref.checkHits(ref.vecs[ix], ref.names[ix], removed, good, pos); !errors.Is(err, errCheck) {
		t.Errorf("removed column in hits: err %v, want a failed check", err)
	}
	if err := checkRecall(0.5, 10); !errors.Is(err, errCheck) {
		t.Errorf("recall 0.5 passed the recall check")
	}
}

func TestCheckLiveRejectsWrongCount(t *testing.T) {
	ok := serve.Stats{IndexSize: 1000 + 40 - 7, StoreColumns: 1000 + 40 - 7}
	if err := checkLive(ok, 1000, 40, 7); err != nil {
		t.Fatal(err)
	}
	for _, st := range []serve.Stats{
		{IndexSize: 1034, StoreColumns: 1033},
		{IndexSize: 1033, StoreColumns: 1032},
		{IndexSize: 1040, StoreColumns: 1040},
	} {
		if err := checkLive(st, 1000, 40, 7); !errors.Is(err, errCheck) {
			t.Errorf("stats %+v passed the live-count check", st)
		}
	}
}

func TestCheckEmbeddingsRejectsNaNAndWrongShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 5)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	d1, err := checkEmbeddings(rows, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d2, _ := checkEmbeddings(rows, 5, 3); d2 != d1 {
		t.Fatal("digest of equal rows differs")
	}
	rows[2][1] = math.NaN()
	if _, err := checkEmbeddings(rows, 5, 3); !errors.Is(err, errCheck) {
		t.Error("a NaN embedding passed")
	}
	rows[2][1] = math.Inf(1)
	if _, err := checkEmbeddings(rows, 5, 3); !errors.Is(err, errCheck) {
		t.Error("an infinite embedding passed")
	}
	rows[2][1] = 0
	if _, err := checkEmbeddings(rows, 5, 4); !errors.Is(err, errCheck) {
		t.Error("rows of the wrong dim passed")
	}
	if _, err := checkEmbeddings(rows[:4], 5, 3); !errors.Is(err, errCheck) {
		t.Error("a missing row passed")
	}
}

func TestPinsRejectChangedBody(t *testing.T) {
	p := newPins([][]byte{[]byte(`{"results":[1]}`), []byte(`{"results":[2]}`)})
	p.check(0, []byte(`{"results":[1]}`))
	p.check(1, []byte(`{"results":[2]}`))
	if err := p.err(); err != nil {
		t.Fatal(err)
	}
	p.check(1, []byte(`{"results":[2] }`))
	if err := p.err(); !errors.Is(err, errCheck) {
		t.Errorf("a changed body passed: %v", err)
	}
}

func TestCheckBatchRejectsWrongOrder(t *testing.T) {
	ref, _ := testReference(t)
	pos := ref.positions()
	body := func(order ...int) []byte {
		var b strings.Builder
		b.WriteString(`{"results":[`)
		for i, ix := range order {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"column":"` + ref.names[ix] + `","results":[`)
			for j, h := range exactHits(t, ref, ix, nil) {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(`{"id":0,"name":"` + h.Name + `","dist":` + formatFloat(h.Dist) + `,"shard":0}`)
			}
			b.WriteString(`]}`)
		}
		b.WriteString(`]}`)
		return []byte(b.String())
	}
	if _, err := checkBatch(ref, pos, body(3, 4), []int{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := checkBatch(ref, pos, body(4, 3), []int{3, 4}); !errors.Is(err, errCheck) {
		t.Errorf("answers in the wrong order passed: %v", err)
	}
	if _, err := checkBatch(ref, pos, body(3), []int{3, 4}); !errors.Is(err, errCheck) {
		t.Errorf("a missing answer passed: %v", err)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
