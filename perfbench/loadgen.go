package main

import (
	"errors"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: closed loops of waiting callers and an open loop of
// independent arrivals, both recording every operation they attempt.

// opKind classifies an operation for the per-kind latency split.
type opKind int

const (
	opSearch opKind = iota
	opMutate
)

// opResult is one attempted operation.
type opResult struct {
	index int
	kind  opKind
	// lat is the operation's latency: from the send in a closed loop, from
	// the due time in an open loop.
	lat time.Duration
	// late is how long after its due time the open loop sent it.
	late time.Duration
	// end is when it completed.
	end     time.Time
	err     error
	refused bool
}

// tally is the failure accounting of a set of operations.
type tally struct {
	attempted, failed, refused int64
	firstErr                   error
}

func count(rs []opResult) tally {
	var t tally
	for _, r := range rs {
		t.attempted++
		if r.err != nil {
			t.failed++
			if r.refused {
				t.refused++
			}
			if t.firstErr == nil {
				t.firstErr = r.err
			}
		}
	}
	return t
}

// request is one prepared operation. Preparing (drawing inputs, encoding
// JSON) happens before the latency clock of a closed loop starts.
type request struct {
	kind        opKind
	method, url string
	body        []byte
	// before runs first on the sending connection (an open-loop delete
	// waits here for the add it undoes); its time counts.
	before func() error
	// after receives the 2xx answer once the latency is taken; an error
	// fails the operation.
	after func(resp []byte) error
	// finally runs when the operation ends, whatever its outcome.
	finally func()
}

// plan prepares operation i.
type plan func(i int) request

// exec sends one prepared request. In a traced run (tr non-nil) it
// records a span for the whole operation, and the benchmark request id
// (i+1) travels in a header so the spans of one request share it.
func exec(c *http.Client, r request, i int, tr *tracer) error {
	if r.finally != nil {
		defer r.finally()
	}
	var reqID int64
	if tr != nil {
		reqID = int64(i) + 1
	}
	span, s := tr.begin()
	defer tr.end(span, 0, reqID, "loadgen.op", s)
	if r.before != nil {
		if err := r.before(); err != nil {
			return err
		}
	}
	resp, err := do(c, r.method, r.url, r.body, reqID, span)
	if err != nil {
		return err
	}
	if r.after != nil {
		return r.after(resp)
	}
	return nil
}

// closedLoop runs clients callers, each sending its next operation when
// the previous one returns, until the deadline. Operations are numbered in
// the order they start; latency runs from the send.
func closedLoop(c *http.Client, clients int, d time.Duration, tr *tracer, p plan) []opResult {
	deadline := time.Now().Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var out []opResult
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opResult
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := p(i)
				t0 := time.Now()
				err := exec(c, r, i, tr)
				end := time.Now()
				mine = append(mine, opResult{index: i, kind: r.kind, lat: end.Sub(t0), end: end, err: err, refused: errors.Is(err, errRefused)})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// arrivals returns the due times of an open loop at a fixed rate per
// second over d. Evenly spaced arrivals keep the offered load the same in
// every run; the op mix carries the seed's randomness.
func arrivals(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// openLoop sends operation i at schedule[i] over at most conns concurrent
// connections; when all are busy, due operations queue in the generator,
// and their latency still runs from the due time. Operations are prepared
// before the schedule starts.
func openLoop(c *http.Client, conns int, schedule []time.Duration, tr *tracer, p plan) []opResult {
	reqs := make([]request, len(schedule))
	for i := range reqs {
		reqs[i] = p(i)
	}
	out := make([]opResult, len(schedule))
	// Buffered to the schedule length: the dispatcher never blocks, so
	// it never delays a later due time behind a busy connection.
	due := make(chan int, len(schedule))
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				at := start.Add(schedule[i])
				sent := time.Now()
				err := exec(c, reqs[i], i, tr)
				end := time.Now()
				out[i] = opResult{index: i, kind: reqs[i].kind, lat: end.Sub(at), late: sent.Sub(at), end: end, err: err, refused: errors.Is(err, errRefused)}
			}
		}()
	}
	for i, off := range schedule {
		if w := time.Until(start.Add(off)); w > 0 {
			time.Sleep(w)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

// latencies returns the latencies in ms of the results of the given kinds
// (all kinds when none is given). A failed or refused operation misses
// every latency limit, so it counts as +Inf.
func latencies(rs []opResult, kinds ...opKind) []float64 {
	var out []float64
	for _, r := range rs {
		if len(kinds) > 0 && !hasKind(kinds, r.kind) {
			continue
		}
		if r.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(r.lat)/1e6)
	}
	return out
}

func hasKind(ks []opKind, k opKind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
