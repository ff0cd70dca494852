package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/gem-embeddings/gem/internal/data"
	"github.com/gem-embeddings/gem/internal/table"
)

// Every input the program receives is generated here from the run's seed:
// the same seed gives the same corpus, queries and op plan.

// contentKey identifies a column by its values. The server keys its cache
// and catalog by content, so two generated columns with equal values would
// collapse into one catalog entry and break the live-count check; the
// generators below use it to keep every column they emit distinct.
type contentKey [32]byte

func keyOf(values []float64) contentKey {
	h := sha256.New()
	var b [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var k contentKey
	copy(k[:], h.Sum(nil))
	return k
}

// corpus is a typed catalog corpus with unique column names ("c000123")
// and unique contents, drawn from data.ScalabilityDataset. Its first
// fitColumns columns are the fit sample, so every workload at one seed
// fits the same mixture whatever its catalog size.
func corpus(n int, seed int64, seen map[contentKey]bool) *table.Dataset {
	// Draw a little more than needed; duplicates (rare, from the discrete
	// generators) are skipped.
	src := data.ScalabilityDataset(n+n/20+8, seed)
	ds := &table.Dataset{Name: src.Name}
	for _, c := range src.Columns {
		if len(ds.Columns) == n {
			break
		}
		k := keyOf(c.Values)
		if seen[k] {
			continue
		}
		seen[k] = true
		c.Name = fmt.Sprintf("c%06d", len(ds.Columns))
		ds.Columns = append(ds.Columns, c)
	}
	return ds
}

// freshColumn draws a column of n values from one of a few continuous and
// discrete families with random parameters. Continuous draws make a
// repeat of another column's exact content practically impossible; the
// callers still check.
func freshColumn(rng *rand.Rand, name string, n int) table.Column {
	v := make([]float64, n)
	switch rng.Intn(5) {
	case 0:
		mu, sd := rng.NormFloat64()*100, 1+rng.Float64()*50
		for i := range v {
			v[i] = mu + sd*rng.NormFloat64()
		}
	case 1:
		mu, sd := rng.Float64()*5, 0.2+rng.Float64()
		for i := range v {
			v[i] = math.Exp(mu + sd*rng.NormFloat64())
		}
	case 2:
		lo := rng.Float64() * 1000
		w := 1 + rng.Float64()*1000
		for i := range v {
			v[i] = lo + w*rng.Float64()
		}
	case 3:
		rate := 0.01 + rng.Float64()
		for i := range v {
			v[i] = rng.ExpFloat64() / rate
		}
	default:
		// Integer-valued counts with a continuous jitter column-wide
		// offset, so two discrete columns never coincide.
		off := rng.Float64()
		top := 2 + rng.Intn(200)
		for i := range v {
			v[i] = float64(rng.Intn(top)) + off
		}
	}
	return table.Column{Name: name, Values: v}
}

// freshColumns draws count distinct columns of n values (or 40..150 values
// when n is 0, the corpus's range) not present in seen, and records them.
func freshColumns(rng *rand.Rand, prefix string, count, n int, seen map[contentKey]bool) []table.Column {
	out := make([]table.Column, 0, count)
	for len(out) < count {
		rows := n
		if rows == 0 {
			rows = 40 + rng.Intn(111)
		}
		c := freshColumn(rng, fmt.Sprintf("%s%d", prefix, len(out)), rows)
		k := keyOf(c.Values)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}
