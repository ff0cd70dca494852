package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// gatedBatcher runs a batcher whose process func records every batch by
// job name on passes — copied, since the dispatcher reuses its slice —
// and finishes its jobs. The first pass closes started and then blocks
// until release is closed, so a test decides exactly what is queued when
// the next pass begins, with no timing involved.
func gatedBatcher(t *testing.T, maxBatch int) (b *batcher, passes chan []string, started, release chan struct{}) {
	t.Helper()
	// Buffers larger than any test's job count: submits and the recording
	// of passes never block, so only the gate orders the dispatcher.
	b = newBatcher(64, maxBatch)
	passes = make(chan []string, 64)
	started, release = make(chan struct{}), make(chan struct{})
	first := true
	go b.run(func(batch []*job) {
		names := make([]string, len(batch))
		for i, j := range batch {
			names[i] = j.col.name
		}
		passes <- names
		if first {
			first = false
			close(started)
			<-release
		}
		for _, j := range batch {
			j.finish(nil, nil)
		}
	})
	t.Cleanup(b.close)
	return b, passes, started, release
}

func newTestJob(i int) *job {
	return &job{col: columnWork{name: fmt.Sprint(i)}, done: make(chan struct{})}
}

// await fails the test instead of hanging when ch never closes or yields.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func submitAll(t *testing.T, b *batcher, jobs []*job) {
	t.Helper()
	for _, j := range jobs {
		if err := b.submit(context.Background(), j); err != nil {
			t.Fatalf("submit %s: %v", j.col.name, err)
		}
	}
}

// TestServeCoalescing pins the self-clocking batcher: a pass takes exactly
// what is queued when it starts, up to maxBatch, in FIFO order, and work
// arriving during a pass forms the next batch.
func TestServeCoalescing(t *testing.T) {
	// n == 0 is a lone job on an idle batcher: a batch of one at once.
	for _, n := range []int{0, 3, 4, 7} {
		t.Run(fmt.Sprintf("%d jobs queued during a pass", n), func(t *testing.T) {
			const maxBatch = 4
			b, passes, started, release := gatedBatcher(t, maxBatch)
			first := newTestJob(0)
			submitAll(t, b, []*job{first})
			await(t, started, "first pass to block")
			queued := make([]*job, n)
			for i := range queued {
				queued[i] = newTestJob(i + 1)
			}
			submitAll(t, b, queued)
			close(release)

			// The first job goes alone; every queued job then arrives
			// exactly once, FIFO, in strides of min(remaining, maxBatch).
			want := [][]string{{"0"}}
			for lo := 1; lo <= n; lo += maxBatch {
				var stride []string
				for i := lo; i <= n && i < lo+maxBatch; i++ {
					stride = append(stride, fmt.Sprint(i))
				}
				want = append(want, stride)
			}
			var got [][]string
			for range want {
				got = append(got, await(t, passes, "pass"))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("passes = %v, want %v", got, want)
			}
			for _, j := range append([]*job{first}, queued...) {
				await(t, j.done, "job "+j.col.name)
				if j.err != nil {
					t.Fatalf("job %s: %v", j.col.name, j.err)
				}
			}
		})
	}

	t.Run("close during a pass fails the queue", func(t *testing.T) {
		b, passes, started, release := gatedBatcher(t, 8)
		first := newTestJob(0)
		submitAll(t, b, []*job{first})
		await(t, started, "first pass to block")
		queued := []*job{newTestJob(1), newTestJob(2), newTestJob(3)}
		submitAll(t, b, queued)

		closed := make(chan struct{})
		go func() {
			b.close()
			close(closed)
		}()
		// close() cannot return while the pass is blocked, but it closes
		// quit first: from here on no new pass may start.
		await(t, b.quit, "close to begin")
		if err := b.submit(context.Background(), newTestJob(4)); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close = %v, want ErrClosed", err)
		}
		close(release)
		await(t, closed, "close to return")

		await(t, first.done, "in-flight job")
		if first.err != nil {
			t.Fatalf("in-flight job: %v", first.err)
		}
		for _, j := range queued {
			await(t, j.done, "queued job "+j.col.name)
			if !errors.Is(j.err, ErrClosed) {
				t.Fatalf("queued job %s: err = %v, want ErrClosed", j.col.name, j.err)
			}
		}
		if len(passes) != 1 {
			t.Fatalf("%d passes ran, want only the in-flight one", len(passes))
		}
	})
}
