package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/core"
	"mood/internal/trace"
)

func TestAsyncUploadLifecycle(t *testing.T) {
	srv, hs := newTestServer(t)
	c := NewClient(hs.URL)

	j, err := uploadOneAsync(c, trace.New("alice", sampleRecords(10)))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.User != "alice" {
		t.Fatalf("job = %+v", j)
	}
	done, err := c.WaitJob(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Result == nil {
		t.Fatalf("job = %+v", done)
	}
	if done.Result.Accepted != 10 || done.Result.Pieces != 1 {
		t.Fatalf("result = %+v", done.Result)
	}
	// The upload landed in the dataset and the accounting.
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsPublished != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAsyncUploadFailureIsReported(t *testing.T) {
	_, hs := newTestServer(t)
	c := NewClient(hs.URL)
	j, err := uploadOneAsync(c, trace.New("boom-user", sampleRecords(3)))
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobFailed || !strings.Contains(done.Error, "engine exploded") {
		t.Fatalf("job = %+v", done)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/v2/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	assertProblem(t, resp, CodeNotFound)
}

// gatedProtector blocks every Protect call until the gate opens,
// letting tests hold the worker pool busy deterministically.
type gatedProtector struct {
	started chan string   // receives the user of each call that began
	gate    chan struct{} // close to release all calls
}

func (g *gatedProtector) Protect(t trace.Trace) (core.Result, error) {
	g.started <- t.User
	<-g.gate
	return core.Result{
		User:         t.User,
		TotalRecords: t.Len(),
		Pieces: []core.Piece{{
			Trace:         t.WithUser("anon-" + t.User),
			Mechanism:     "gated",
			SourceRecords: t.Len(),
		}},
	}, nil
}

// TestQueueFullBackpressure503 pins the queue's backpressure: with the
// worker busy and the queue full, a further chunk waits for space
// instead of being refused, and completes once the pool moves. A chunk
// whose wait is abandoned (the client went away) is answered 503 +
// Retry-After and leaves nothing behind.
func TestQueueFullBackpressure503(t *testing.T) {
	gp := &gatedProtector{started: make(chan string, 8), gate: make(chan struct{})}
	srv, err := New(gp, WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	// First upload occupies the single worker...
	firstErr := make(chan error, 1)
	go func() {
		_, err := uploadOne(c, trace.New("occupant", sampleRecords(3)))
		firstErr <- err
	}()
	select {
	case <-gp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first upload never reached the protector")
	}
	// ...the second fills the queue (accepted async, still queued)...
	queued, err := uploadOneAsync(c, trace.New("queued", sampleRecords(3)))
	if err != nil {
		t.Fatal(err)
	}
	// ...and the third waits for queue space instead of being refused.
	thirdErr := make(chan error, 1)
	go func() {
		_, err := uploadOne(c, trace.New("waiter", sampleRecords(3)))
		thirdErr <- err
	}()
	select {
	case err := <-thirdErr:
		t.Fatalf("upload on a full queue answered before the queue moved: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// A wait whose context ends is shed retryably, sync or async, and
	// commits nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, async := range []bool{false, true} {
		out := srv.executeChunk(ctx, trace.New("shed", sampleRecords(3)), "", async)
		if out.status != http.StatusServiceUnavailable || out.code != CodeQueueFull || !out.retryAfter {
			t.Fatalf("abandoned wait (async=%v) = %+v, want 503 %s with Retry-After", async, out, CodeQueueFull)
		}
	}
	if list := srv.jobs.list("", "shed", 0); list.Total != 0 {
		t.Fatalf("shed async chunk left a job behind: %+v", list)
	}

	// Releasing the gate completes all three accepted uploads.
	close(gp.gate)
	if err := <-firstErr; err != nil {
		t.Fatal(err)
	}
	if err := <-thirdErr; err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(queued.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("queued job = %+v", done)
	}
	if st := srv.Stats(); st.Uploads != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// panicProtector exercises the worker-side panic containment.
type panicProtector struct{}

func (panicProtector) Protect(trace.Trace) (core.Result, error) { panic("engine bug") }

func TestProtectorPanicBecomes500NotCrash(t *testing.T) {
	srv, err := New(panicProtector{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	if _, err := uploadOne(c, trace.New("alice", sampleRecords(3))); err == nil ||
		!strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v, want 500", err)
	}
	// Async jobs record the panic as a failure.
	j, err := uploadOneAsync(c, trace.New("bob", sampleRecords(3)))
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobFailed || !strings.Contains(done.Error, "panicked") {
		t.Fatalf("job = %+v", done)
	}
}

// TestParallelUploadsShardedState hammers the sharded state from many
// users at once; run under -race this is the regression test for the
// per-shard locking.
func TestParallelUploadsShardedState(t *testing.T) {
	srv, err := New(&fakeProtector{}, WithQueueDepth(256), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	const users, uploadsPerUser = 32, 4
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(hs.URL)
			u := fmt.Sprintf("user-%03d", i)
			for k := 0; k < uploadsPerUser; k++ {
				if k%2 == 0 {
					if _, err := uploadOne(c, trace.New(u, sampleRecords(5))); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				j, err := uploadOneAsync(c, trace.New(u, sampleRecords(5)))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.WaitJob(j.ID, 10*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Users != users || st.Uploads != users*uploadsPerUser {
		t.Fatalf("stats = %+v", st)
	}
	if st.RecordsIn != users*uploadsPerUser*5 || st.RecordsPublished != st.RecordsIn {
		t.Fatalf("record accounting = %+v", st)
	}
	if got := len(srv.Users()); got != users {
		t.Fatalf("users = %d", got)
	}
	if got := len(srv.publishedSnapshot()); got != st.PublishedTraces {
		t.Fatalf("published snapshot %d != stats %d", got, st.PublishedTraces)
	}
}

func TestServerCloseDrainsQueuedJobs(t *testing.T) {
	gp := &gatedProtector{started: make(chan string, 8), gate: make(chan struct{})}
	srv, err := New(gp, WithWorkers(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	// Occupy the worker, then queue two async jobs behind it.
	first := make(chan error, 1)
	go func() {
		_, err := uploadOne(c, trace.New("occupant", sampleRecords(3)))
		first <- err
	}()
	<-gp.started
	var ids []string
	for i := 0; i < 2; i++ {
		j, err := uploadOneAsync(c, trace.New(fmt.Sprintf("queued-%d", i), sampleRecords(3)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	close(gp.gate)
	if err := srv.Close(); err != nil { // blocks until the queue is drained
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, ok := srv.jobs.get(id)
		if !ok || j.State != JobDone {
			t.Fatalf("job %s = %+v after Close", id, j)
		}
	}
	// Uploads after Close are shed, not silently dropped.
	if _, err := uploadOne(c, trace.New("late", sampleRecords(3))); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("post-close upload err = %v, want 503", err)
	}
}
