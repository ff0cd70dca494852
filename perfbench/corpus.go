package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"time"

	"github.com/gem-embeddings/gem/internal/core"
	"github.com/gem-embeddings/gem/internal/eval"
	"github.com/gem-embeddings/gem/internal/table"
)

// corpusFits is how many models a corpus-embed run fits and embeds with;
// EM's cost varies with its sample, and Embed's with the model, by up to a
// third, so one model says little.
const corpusFits = 3

// corpusEmbed: the paper's offline path (Figure 5), in-process. Set-up
// generates the corpus. The measured phase fits corpusFits embedders with
// the paper's configuration (50 components, 3 restarts, 8,000-value
// subsample, D+S), each on another subsample, and embeds the corpus with
// each, one 1,000-column table at a time; the last model re-embeds it
// while the phase time lasts. This is the only workload where gmm EM
// and the pooled core.Embed dominate.
func corpusEmbed(e env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	ds, setups, err := repeatSetup(e.setups, func(int) (*table.Dataset, error) {
		return corpus(e.p.corpusColumns, e.seed, map[contentKey]bool{}), nil
	}, func(*table.Dataset) {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = median(setups)
	o.notef("%s", setupNote(setups))
	tables := splitTables(ds, e.p.corpusTable)

	var fits fitTimes
	// perFit holds each fitted model's Embed call times: the cost of an
	// Embed depends on the model by up to a third, so the run reports the
	// median over its models of each model's median.
	perFit := make([][]float64, corpusFits)
	var emb *core.Embedder
	var rows [][]float64
	var u usage
	embedPass := func(i int) error {
		u0 := readUsage()
		rows = rows[:0]
		for _, t := range tables {
			id, sp := e.tr.begin()
			s := time.Now()
			r, err := emb.Embed(t)
			if err != nil {
				return err
			}
			perFit[i] = append(perFit[i], float64(time.Since(s))/1e6)
			e.tr.end(id, 0, 0, "core.embed", sp)
			rows = append(rows, r...)
		}
		u = u.plus(readUsage().minus(u0))
		return nil
	}
	t0 := time.Now()
	passes := 0
	for i := 0; i < corpusFits; i++ {
		emb, err = core.NewEmbedder(core.Config{
			Components:     e.p.corpusComponents,
			Restarts:       e.p.corpusRestarts,
			Seed:           fitSeed(e.seed, i, corpusFits),
			SubsampleStack: 8000,
			Workers:        workers,
		})
		if err != nil {
			return nil, err
		}
		id, sp := e.tr.begin()
		if err := fits.fit(emb, ds); err != nil {
			return nil, err
		}
		e.tr.end(id, 0, 0, "core.fit", sp)
		if err := embedPass(i); err != nil {
			return nil, err
		}
		passes++
	}
	// The last model is fitted with the run's seed; its embeddings are the
	// run's answer. Further passes, while the phase lasts, must repeat them
	// bit for bit.
	digest, err := checkEmbeddings(rows, len(ds.Columns), e.p.corpusComponents+len(core.StatFeatureNames()))
	o.check(err)
	for o.checkErr == nil && time.Since(t0) < e.d {
		if err := embedPass(corpusFits - 1); err != nil {
			return nil, err
		}
		passes++
		dg, err := checkEmbeddings(rows, len(ds.Columns), e.p.corpusComponents+len(core.StatFeatureNames()))
		o.check(err)
		if err == nil && dg != digest {
			o.check(checkf("embedding pass %d digests to %s, the first pass of the model to %s", passes, dg, digest))
		}
	}
	o.digest = digest
	var tableMs, medians []float64
	for _, ms := range perFit {
		tableMs = append(tableMs, ms...)
		medians = append(medians, median(ms))
	}
	o.tally = tally{attempted: int64(len(tableMs))}
	o.setFits(fits)
	o.e2e["p50_ms"] = median(medians)
	o.e2e["cols_per_s"] = float64(e.p.corpusTable) / (o.e2e["p50_ms"] / 1000)
	o.e2e["cpu_us_per_col"] = float64(u.cpu) / 1e3 / float64(passes*len(ds.Columns))
	o.e2e["rss_mb"] = peakRSSMB()
	o.notef("%d embedding passes, %d table embeds: per-model p50 %s ms, p99 %.3f ms; embedding digest %s",
		passes, len(tableMs), joinSeconds(medians), percentile(tableMs, 0.99), digest)

	if o.checkErr == nil {
		// The paper's Table 2 measure on a fixed seeded sample.
		rng := rand.New(rand.NewSource(e.seed))
		idx := rng.Perm(len(rows))[:min(e.p.corpusSample, len(rows))]
		sample := make([][]float64, len(idx))
		labels := make([]string, len(idx))
		for i, j := range idx {
			sample[i], labels[i] = rows[j], ds.Columns[j].Type
		}
		tp, err := eval.AveragePrecisionByType(sample, labels)
		if err != nil {
			return nil, err
		}
		o.e2e["quality"] = tp
		o.notef("quality: average precision by type %.4f over %d sampled columns", tp, len(idx))
	}

	if e.tr != nil {
		o.setFit(emb.FitStats())
		o.setRuntime(u, int64(passes*len(ds.Columns)))
		o.layers["loadgen.attempted"] = float64(len(tableMs))
		o.layers["loadgen.p99_ms"] = percentile(tableMs, 0.99)
		// The signature share of Embed, from one timed Signatures pass.
		s := time.Now()
		for _, t := range tables {
			if _, err := emb.Signatures(t); err != nil {
				return nil, err
			}
		}
		sig := time.Since(s).Seconds()
		var lastMs float64
		for _, ms := range perFit[corpusFits-1] {
			lastMs += ms
		}
		lastPasses := passes - (corpusFits - 1)
		o.layers["core.signatures_s"] = sig
		o.layers["core.embed_other_s"] = lastMs/1000/float64(lastPasses) - sig
	}
	return o, nil
}

// splitTables cuts ds into consecutive tables of n columns.
func splitTables(ds *table.Dataset, n int) []*table.Dataset {
	var out []*table.Dataset
	for i := 0; i < len(ds.Columns); i += n {
		out = append(out, &table.Dataset{Name: ds.Name, Columns: ds.Columns[i:min(i+n, len(ds.Columns))]})
	}
	return out
}

// checkEmbeddings checks that there is one finite row of the expected
// width per column, and returns the digest of all rows' bits.
func checkEmbeddings(rows [][]float64, cols, dim int) (string, error) {
	if len(rows) != cols {
		return "", checkf("%d embedding rows for %d columns", len(rows), cols)
	}
	h := sha256.New()
	var b [8]byte
	for i, r := range rows {
		if len(r) != dim {
			return "", checkf("row %d has dim %d, want %d", i, len(r), dim)
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", checkf("row %d component %d is %v", i, j, v)
			}
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
