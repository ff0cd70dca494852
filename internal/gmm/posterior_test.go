package gmm

import (
	"math"
	"testing"

	"github.com/gem-embeddings/gem/internal/mathx"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// TestTrainingInferencePosteriorsIdentical pins the contract that every
// responsibility path shares one formula: the EM E-step row (estepRow, the
// helper emLoop calls), Responsibilities and MeanResponsibilities agree bit
// for bit, and the posterior kernel returns exactly mathx.LogSumExp of the
// row it normalizes. K = 7 also exercises the tail of the 4-wide unroll.
func TestTrainingInferencePosteriorsIdentical(t *testing.T) {
	m, err := Fit(mixtureSample(3000, 60), Config{K: 7, Restarts: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k := m.K()
	c1, c2 := make([]float64, k), make([]float64, k)
	m.foldConstants(c1, c2)
	// A few hundred in-distribution values plus far-tail values whose rows
	// come out one-hot, where a formula that differs in the last ulp of a
	// near-zero posterior would show.
	xs := append(mixtureSample(300, 61), -1e6, -2e3, -40, -12, 0, 12, 40, 2e3, 1e6, 1e150)
	sum := make([]float64, k)
	oneHot := 0
	for _, x := range xs {
		row := make([]float64, k)
		ll := estepRow(x, m.Means, c1, c2, row)
		r := m.Responsibilities(x)
		// (a) E-step row ≡ Responsibilities.
		if !sameBits(row, r) {
			t.Fatalf("x=%v: E-step row %v != Responsibilities %v", x, row, r)
		}
		for j, v := range r {
			sum[j] += v
			if v == 1 {
				oneHot++
			}
		}
		// (c) kernel return ≡ LogSumExp of the same row, which is also
		// LogPDF's value.
		logRow := make([]float64, k)
		weightedLogPDFs(x, m.Means, c1, c2, logRow)
		want := mathx.LogSumExp(logRow)
		if got := posteriors(logRow); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x=%v: posteriors returned %v, LogSumExp %v", x, got, want)
		}
		if math.Float64bits(ll) != math.Float64bits(want) {
			t.Fatalf("x=%v: estepRow returned %v, LogSumExp %v", x, ll, want)
		}
		if lp := m.LogPDF(x); math.Float64bits(lp) != math.Float64bits(want) {
			t.Fatalf("x=%v: LogPDF %v != E-step log-likelihood %v", x, lp, want)
		}
	}
	if oneHot < 4 {
		t.Fatalf("only %d one-hot rows: the far tail is not exercised", oneHot)
	}
	// (b) MeanResponsibilities ≡ in-order mean of Responsibilities.
	inv := 1 / float64(len(xs))
	for j := range sum {
		sum[j] *= inv
	}
	mr, err := m.MeanResponsibilities(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(mr, sum) {
		t.Fatalf("MeanResponsibilities %v != mean of Responsibilities %v", mr, sum)
	}
}
