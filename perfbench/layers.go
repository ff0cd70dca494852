package main

import (
	"fmt"
	"net/http"
	"time"
)

// scrapeEach reads /metrics from every server, one set per server.
func scrapeEach(c *http.Client, bases ...string) ([]metricSet, error) {
	out := make([]metricSet, len(bases))
	for i, b := range bases {
		m, err := scrape(c, b)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// deltas returns after[i] - before[i] per server.
func deltas(after, before []metricSet) []metricSet {
	out := make([]metricSet, len(after))
	for i := range after {
		out[i] = after[i].minus(before[i])
	}
	return out
}

// setAnn records the ann layer's numbers from the timed wrapper.
func (o *outcome) setAnn(a annSnapshot, elapsed time.Duration) {
	o.layers["ann.search_calls"] = float64(a.searchCalls)
	if a.searchQueries > 0 {
		o.layers["ann.search_us_per_query"] = float64(a.searchNanos) / 1e3 / float64(a.searchQueries)
	}
	o.layers["ann.search_busy_share"] = float64(a.searchNanos) / float64(elapsed)
	if a.addVecs > 0 {
		o.layers["ann.add_us_per_vec"] = float64(a.addNanos) / 1e3 / float64(a.addVecs)
	}
	o.layers["ann.remove_calls"] = float64(a.removeCalls)
	o.layers["ann.rebuild_ms"] = float64(a.rebuildNanos) / 1e6
}

// setServe records the serve and shard layers' numbers from the phase's
// /metrics deltas of every backend, and the shard counts of each.
func (o *outcome) setServe(per []metricSet, shards []int) {
	all := metricSet{}
	for _, m := range per {
		for key, v := range m {
			all[key] += v
		}
	}
	search := `{endpoint="/search"}`
	o.layers["serve.search_http_ms"] = all.meanMs("gem_http_request_seconds", search)
	cols := all["gem_http_request_seconds_count"+`{endpoint="/columns"}`] +
		all["gem_http_request_seconds_count"+`{endpoint="/columns/{ref}"}`]
	if cols > 0 {
		o.layers["serve.columns_http_ms"] = (all["gem_http_request_seconds_sum"+`{endpoint="/columns"}`] +
			all["gem_http_request_seconds_sum"+`{endpoint="/columns/{ref}"}`]) / cols * 1000
	}
	stage := func(family, name string) float64 { return all.meanMs(family, `{stage="`+name+`"}`) }
	o.layers["serve.batch_wait_ms"] = stage("gem_embed_stage_seconds", "batch_wait")
	o.layers["serve.signatures_ms"] = stage("gem_embed_stage_seconds", "signatures")
	o.layers["serve.cache_lookup_ms"] = stage("gem_embed_stage_seconds", "cache_lookup")
	o.layers["serve.search_embed_ms"] = stage("gem_search_stage_seconds", "embed")
	o.layers["serve.scatter_ms"] = stage("gem_search_stage_seconds", "scatter")
	o.layers["serve.merge_ms"] = stage("gem_search_stage_seconds", "merge")
	if all["gem_http_request_seconds_count"+search] > 0 {
		o.layers["serve.unattributed_ms"] = o.layers["serve.search_http_ms"] -
			(o.layers["serve.search_embed_ms"] + o.layers["serve.scatter_ms"] + o.layers["serve.merge_ms"])
	}
	if h, m := all["gem_cache_hits_total"], all["gem_cache_misses_total"]; h+m > 0 {
		o.layers["serve.cache_hit_ratio"] = h / (h + m)
	}
	if b := all["gem_batches_total"]; b > 0 {
		o.layers["serve.mean_batch_cols"] = all["gem_batch_columns_total"] / b
	}
	var worst float64
	for i, m := range per {
		for s := 0; s < shards[i]; s++ {
			worst = max(worst, m.meanMs("gem_search_shard_seconds", fmt.Sprintf(`{shard="%d"}`, s)))
		}
	}
	o.layers["shard.max_shard_ms"] = worst
}

// setCatalog records the catalog layer's numbers: journal growth per
// mutation and compactions over the phase.
func (o *outcome) setCatalog(journalBytes int64, mutations int64, compactions int64) {
	if mutations > 0 {
		o.layers["catalog.journal_bytes_per_mutation"] = float64(journalBytes) / float64(mutations)
	}
	o.layers["catalog.compactions"] = float64(compactions)
}

// budget adds the server-side /search latency budget to the notes: the
// named stages and the unattributed remainder, which sum to the
// server-side /search mean. The embed sub-stages are histograms of every
// embed, so they split the search embed only where searches are the
// only embeds (searchOnly).
func (o *outcome) budget(searchOnly bool) {
	l := o.layers
	if l["serve.search_http_ms"] == 0 {
		return
	}
	total := l["serve.search_http_ms"]
	embedOther := l["serve.search_embed_ms"] - l["serve.cache_lookup_ms"] - l["serve.batch_wait_ms"] - l["serve.signatures_ms"]
	type row struct {
		name string
		ms   float64
	}
	rows := []row{{"search embed", l["serve.search_embed_ms"]}}
	if searchOnly {
		rows = []row{
			{"search embed: cache lookup", l["serve.cache_lookup_ms"]},
			{"search embed: batch wait", l["serve.batch_wait_ms"]},
			{"search embed: signatures", l["serve.signatures_ms"]},
			{"search embed: rest", embedOther},
		}
	}
	rows = append(rows,
		row{"scatter (shard search)", l["serve.scatter_ms"]},
		row{"merge", l["serve.merge_ms"]},
		row{"unattributed (decode, key, encode, handoff)", l["serve.unattributed_ms"]})
	o.notef("server-side /search budget (means over the traced phase):")
	sum := 0.0
	for _, r := range rows {
		sum += r.ms
		o.notef("  %-45s %8.4f ms %6.1f%%", r.name, r.ms, 100*r.ms/total)
	}
	o.notef("  %-45s %8.4f ms (sum %8.4f ms)", "/search HTTP mean", total, sum)
}
