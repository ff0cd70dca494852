package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gem-embeddings/gem/internal/ann"
)

// The traced run times the calls the benchmark makes into each layer from
// the outside: a wrapper around every ann.Index handed to shard.New, an
// http.RoundTripper under the proxy's fan-out client, and middleware
// around the handlers the benchmark mounts. Nothing inside the program is
// instrumented by this package.

// requestIDHeader carries the benchmark's request id from its client
// through the proxy hop to the backends, so spans of one request share
// an id.
const requestIDHeader = "X-Perfbench-Request"

// parentHeader carries the id of the span that sent a request, so the
// receiving side's span names its parent.
const parentHeader = "X-Perfbench-Parent"

// maxSpans bounds the in-memory span buffer; later spans are counted but
// not kept.
const maxSpans = 1 << 20

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. Parent is the id of the span that caused it, or 0;
// Request is the benchmark request id, or 0 where the call cannot be tied
// to one (calls deep inside the program, such as an index search).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request int64  `json:"request,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run passes nil everywhere.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and start offset.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), int64(time.Since(t.t0))
}

// end closes a span opened by begin.
func (t *tracer) end(id, parent, request int64, name string, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// annCounters accumulates the timed calls into one or more indexes.
type annCounters struct {
	searchCalls   atomic.Int64
	searchQueries atomic.Int64
	searchNanos   atomic.Int64
	addVecs       atomic.Int64
	addNanos      atomic.Int64
	removeCalls   atomic.Int64
	rebuildNanos  atomic.Int64
}

// annSnapshot is a point-in-time copy of annCounters.
type annSnapshot struct {
	searchCalls, searchQueries, searchNanos int64
	addVecs, addNanos                       int64
	removeCalls, rebuildNanos               int64
}

func (c *annCounters) snapshot() annSnapshot {
	return annSnapshot{
		searchCalls: c.searchCalls.Load(), searchQueries: c.searchQueries.Load(), searchNanos: c.searchNanos.Load(),
		addVecs: c.addVecs.Load(), addNanos: c.addNanos.Load(),
		removeCalls: c.removeCalls.Load(), rebuildNanos: c.rebuildNanos.Load(),
	}
}

func (a annSnapshot) minus(b annSnapshot) annSnapshot {
	return annSnapshot{
		searchCalls: a.searchCalls - b.searchCalls, searchQueries: a.searchQueries - b.searchQueries,
		searchNanos: a.searchNanos - b.searchNanos, addVecs: a.addVecs - b.addVecs, addNanos: a.addNanos - b.addNanos,
		removeCalls: a.removeCalls - b.removeCalls, rebuildNanos: a.rebuildNanos - b.rebuildNanos,
	}
}

// timedIndex is an ann.Index that times every call it forwards. The
// server sees it as a foreign index type, so its store identity differs
// from the bare HNSW's; stores are opened with the identity derived from
// this wrapped value.
type timedIndex struct {
	ann.Index
	ctr *annCounters
	tr  *tracer
}

func (x *timedIndex) Add(vecs ...[]float64) error {
	id, s := x.tr.begin()
	t := time.Now()
	err := x.Index.Add(vecs...)
	x.ctr.addNanos.Add(int64(time.Since(t)))
	x.ctr.addVecs.Add(int64(len(vecs)))
	x.tr.end(id, 0, 0, "ann.add", s)
	return err
}

func (x *timedIndex) Remove(i int) error {
	id, s := x.tr.begin()
	err := x.Index.Remove(i)
	x.ctr.removeCalls.Add(1)
	x.tr.end(id, 0, 0, "ann.remove", s)
	return err
}

func (x *timedIndex) Search(q []float64, k int) ([]ann.Result, error) {
	id, s := x.tr.begin()
	t := time.Now()
	r, err := x.Index.Search(q, k)
	x.ctr.searchNanos.Add(int64(time.Since(t)))
	x.ctr.searchCalls.Add(1)
	x.ctr.searchQueries.Add(1)
	x.tr.end(id, 0, 0, "ann.search", s)
	return r, err
}

func (x *timedIndex) SearchBatch(qs [][]float64, k int) ([][]ann.Result, error) {
	id, s := x.tr.begin()
	t := time.Now()
	r, err := x.Index.SearchBatch(qs, k)
	x.ctr.searchNanos.Add(int64(time.Since(t)))
	x.ctr.searchCalls.Add(1)
	x.ctr.searchQueries.Add(int64(len(qs)))
	x.tr.end(id, 0, 0, "ann.search", s)
	return r, err
}

func (x *timedIndex) Rebuild() ([]int, error) {
	id, s := x.tr.begin()
	t := time.Now()
	m, err := x.Index.Rebuild()
	x.ctr.rebuildNanos.Add(int64(time.Since(t)))
	x.tr.end(id, 0, 0, "ann.rebuild", s)
	return m, err
}

// ctxKey tags a request context with the benchmark request id and the
// span that handles it.
type ctxKey struct{}

type reqTag struct {
	request int64
	span    int64
}

// hopRecorder collects the proxy's per-backend hop times, grouped by the
// benchmark request that caused them.
type hopRecorder struct {
	mu    sync.Mutex
	total time.Duration
	hops  int64
	// slowest holds, per benchmark request id, its slowest hop.
	slowest map[int64]time.Duration
}

// reset forgets the hops recorded so far.
func (h *hopRecorder) reset() {
	h.mu.Lock()
	h.total, h.hops = 0, 0
	clear(h.slowest)
	h.mu.Unlock()
}

// timingTransport is the proxy's fan-out RoundTripper in the traced run:
// it times each backend hop and forwards the request id to the backend.
type timingTransport struct {
	next http.RoundTripper
	tr   *tracer
	rec  *hopRecorder
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tag, _ := r.Context().Value(ctxKey{}).(reqTag)
	id, s := t.tr.begin()
	if tag.request != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(requestIDHeader, strconv.FormatInt(tag.request, 10))
		r.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		// The hop ends when its body is read; wrap it so the close stamps
		// the time.
		resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
			d := time.Since(t0)
			t.rec.mu.Lock()
			t.rec.total += d
			t.rec.hops++
			if d > t.rec.slowest[tag.request] {
				t.rec.slowest[tag.request] = d
			}
			t.rec.mu.Unlock()
			t.tr.end(id, tag.span, tag.request, "proxy.hop", s)
		}}
	}
	return resp, err
}

// hopBody calls done once, when the proxy closes the backend's body.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tagged wraps a handler so each request's context carries the benchmark
// request id from the header and a span for the handler's work, whose
// parent is the sender's span.
func tagged(h http.Handler, tr *tracer, name string) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		id, s := tr.begin()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, reqTag{request: req, span: id})))
		tr.end(id, parent, req, name, s)
	})
}
