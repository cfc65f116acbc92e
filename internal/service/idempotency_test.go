package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/clock"
	"mood/internal/core"
	"mood/internal/trace"
)

// idemUpload posts one chunk under key as a one-line /v2/traces batch
// and returns its result line and, on 200, the protection outcome.
func idemUpload(t *testing.T, hs *httptest.Server, user, key string, n int) (BatchResult, UploadResponse) {
	t.Helper()
	res := idemPost(t, hs, BatchChunk{User: user, Records: sampleRecords(n), Key: key})
	var ur UploadResponse
	if res.Result != nil {
		ur = *res.Result
	}
	return res, ur
}

// idemPost posts one chunk as a one-line batch and returns its result
// line.
func idemPost(t *testing.T, hs *httptest.Server, c BatchChunk) BatchResult {
	t.Helper()
	_, results := postNDJSON(t, hs.URL, batchLine(t, c), nil)
	if len(results) != 1 {
		t.Fatalf("got %d result lines, want 1", len(results))
	}
	return results[0]
}

// TestIdempotencyReplaySync: a second sync upload with the same key must
// not commit again — same response, one protector call, one commit.
func TestIdempotencyReplaySync(t *testing.T) {
	fp := &fakeProtector{}
	srv, err := New(fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	r1, u1 := idemUpload(t, hs, "alice", "chunk-2026-07-28", 30)
	if r1.Status != http.StatusOK {
		t.Fatalf("first upload: %d", r1.Status)
	}
	if r1.Replay {
		t.Fatal("first upload flagged as replay")
	}
	r2, u2 := idemUpload(t, hs, "alice", "chunk-2026-07-28", 30)
	if r2.Status != http.StatusOK {
		t.Fatalf("replay: %d", r2.Status)
	}
	if !r2.Replay {
		t.Fatal("replay not flagged")
	}
	if u1.Accepted != u2.Accepted || u1.Rejected != u2.Rejected || u1.Pieces != u2.Pieces {
		t.Fatalf("replay response differs: %+v vs %+v", u1, u2)
	}
	if fp.calls != 1 {
		t.Fatalf("protector ran %d times, want 1", fp.calls)
	}
	st := srv.Stats()
	if st.Uploads != 1 || st.RecordsIn != 30 {
		t.Fatalf("replay committed again: %+v", st)
	}
	// A different key from the same user executes normally.
	r3, _ := idemUpload(t, hs, "alice", "chunk-2026-07-29", 30)
	if r3.Status != http.StatusOK || r3.Replay {
		t.Fatalf("fresh key replayed: %d", r3.Status)
	}
	if srv.Stats().Uploads != 2 {
		t.Fatalf("uploads = %d, want 2", srv.Stats().Uploads)
	}
}

// TestIdempotencyScopedPerUser: the same key from two users must not
// collide.
func TestIdempotencyScopedPerUser(t *testing.T) {
	srv, hs := newTestServer(t)
	if r, _ := idemUpload(t, hs, "alice", "day-1", 25); r.Status != http.StatusOK {
		t.Fatalf("alice: %d", r.Status)
	}
	r, _ := idemUpload(t, hs, "bob", "day-1", 25)
	if r.Status != http.StatusOK || r.Replay {
		t.Fatalf("bob's first upload treated as replay (%d)", r.Status)
	}
	if srv.Stats().Uploads != 2 {
		t.Fatalf("uploads = %d, want 2", srv.Stats().Uploads)
	}
}

// slowProtector blocks until released, so tests can park an upload
// in-flight; entered signals each call reaching the protector.
type slowProtector struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	calls   int
}

func (p *slowProtector) Protect(tr trace.Trace) (core.Result, error) {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	if p.entered != nil {
		p.entered <- struct{}{}
	}
	<-p.release
	return core.Result{
		User:         tr.User,
		TotalRecords: tr.Len(),
		Pieces: []core.Piece{{
			Trace:         tr.WithUser("anon-slow"),
			Mechanism:     "slow",
			SourceRecords: tr.Len(),
		}},
	}, nil
}

// TestIdempotencyRetryAfterTimeout is the ROADMAP scenario: the first
// sync request is cancelled while its job is still running; the keyed
// retry must wait for the original outcome and commit exactly once.
func TestIdempotencyRetryAfterTimeout(t *testing.T) {
	sp := &slowProtector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	body := batchLine(t, BatchChunk{User: "carol", Records: sampleRecords(20), Key: "carol-day-1"})
	// The first request is cancelled only once its job provably reached
	// the protector, so the cancellation always races a live upload —
	// deterministic, where the historical 150 ms wall-clock timeout was
	// a guess.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v2/traces", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	firstErr := make(chan error, 1)
	go func() {
		resp, err := hs.Client().Do(req)
		if err == nil {
			// The result stream is cut by the cancellation below.
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		firstErr <- err
	}()
	select {
	case <-sp.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("upload never reached the protector")
	}
	cancel()
	if err := <-firstErr; err == nil {
		t.Fatal("expected the first request to fail on context cancellation")
	}

	// Retry while the original is still in flight, then release it: the
	// retry must attach to the original, not enqueue again.
	close(sp.release)
	r2, u2 := idemUpload(t, hs, "carol", "carol-day-1", 20)
	if r2.Status != http.StatusOK {
		t.Fatalf("retry: %d", r2.Status)
	}
	if !r2.Replay {
		t.Fatal("retry not served as replay")
	}
	if u2.Accepted != 20 {
		t.Fatalf("retry accepted %d, want 20", u2.Accepted)
	}
	if sp.calls != 1 {
		t.Fatalf("protector ran %d times, want 1", sp.calls)
	}
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsIn != 20 {
		t.Fatalf("chunk committed twice: %+v", st)
	}
}

// TestIdempotencyAsyncReplay: an async retry under the same key gets the
// same job handle instead of a second job.
func TestIdempotencyAsyncReplay(t *testing.T) {
	srv, hs := newTestServer(t)
	post := func() BatchResult {
		return idemPost(t, hs, BatchChunk{User: "dave", Records: sampleRecords(15), Key: "dave-day-1", Async: true})
	}
	r1 := post()
	if r1.Status != http.StatusAccepted || r1.Replay || r1.Job == nil {
		t.Fatalf("first async: %+v", r1)
	}
	r2 := post()
	if r2.Status != http.StatusAccepted || !r2.Replay || r2.Job == nil {
		t.Fatalf("async replay: %+v", r2)
	}
	if r1.Job.ID != r2.Job.ID {
		t.Fatalf("replay created a new job: %s vs %s", r1.Job.ID, r2.Job.ID)
	}
	// Join the job through its idempotency entry (completed only after
	// the commit) instead of sleep-polling the stats.
	waitIdemDone(t, srv, "dave", "dave-day-1", sampleRecords(15))
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsIn != 15 {
		t.Fatalf("async replay committed twice: %+v", st)
	}
}

// waitIdemDone blocks until the (user, key) idempotency entry reports
// its outcome — a deterministic join on an async upload's commit, with
// no wall-clock polling. The records must match the original upload
// (begin checks the payload fingerprint).
func waitIdemDone(t *testing.T, srv *Server, user, key string, records []trace.Record) {
	t.Helper()
	e, isNew := srv.idem.begin(user, key, uploadFingerprint(trace.New(user, records)))
	if isNew {
		t.Fatalf("idempotency entry for (%s, %s) was never created", user, key)
	}
	select {
	case <-e.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("upload (%s, %s) never completed", user, key)
	}
}

// TestIdempotencyFailureReleasesKey: a failed upload must free its key
// so a retry re-executes (the failure committed nothing).
func TestIdempotencyFailureReleasesKey(t *testing.T) {
	fp := &fakeProtector{}
	srv, err := New(fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	r1, _ := idemUpload(t, hs, "boom-eve", "eve-day-1", 10)
	if r1.Status != http.StatusInternalServerError {
		t.Fatalf("first upload: %d, want 500", r1.Status)
	}
	r2, _ := idemUpload(t, hs, "boom-eve", "eve-day-1", 10)
	if r2.Status != http.StatusInternalServerError {
		t.Fatalf("retry: %d, want 500 from a fresh execution", r2.Status)
	}
	if r2.Replay {
		t.Fatal("failed upload replayed instead of re-executed")
	}
	if fp.calls != 2 {
		t.Fatalf("protector ran %d times, want 2 (failure released the key)", fp.calls)
	}
}

// TestIdempotencyKeyTooLong: oversized keys are rejected up front.
func TestIdempotencyKeyTooLong(t *testing.T) {
	_, hs := newTestServer(t)
	long := make([]byte, maxIdempotencyKeyLen+1)
	for i := range long {
		long[i] = 'k'
	}
	r, _ := idemUpload(t, hs, "alice", string(long), 10)
	if r.Status != http.StatusBadRequest {
		t.Fatalf("oversized key: %d, want 400", r.Status)
	}
}

// TestIdemStoreEviction: the dedupe window stays bounded and evicts
// oldest-completed first.
func TestIdemStoreEviction(t *testing.T) {
	st := newIdemStore(4, 0, nil)
	var first *idemEntry
	for i := 0; i < 8; i++ {
		user := fmt.Sprintf("u%d", i)
		e, isNew := st.begin(user, "k", 0)
		if !isNew {
			t.Fatalf("entry %d not new", i)
		}
		if i == 0 {
			first = e
		}
		st.complete(user, "k", e, UploadResponse{Accepted: i}, nil)
	}
	if len(st.entries) > 4 {
		t.Fatalf("window grew to %d entries, cap 4", len(st.entries))
	}
	if _, ok := st.entries[idemKey("u0", "k")]; ok {
		t.Fatal("oldest entry survived eviction")
	}
	// The evicted entry pointer still works for in-flight holders.
	if resp, done, _ := st.outcome(first); !done || resp.Accepted != 0 {
		t.Fatal("evicted entry lost its outcome")
	}
	// A replay of an evicted key re-executes (dedupe forgotten, by design).
	if _, isNew := st.begin("u0", "k", 0); !isNew {
		t.Fatal("evicted key should be fresh again")
	}
}

// TestIdemStorePendingNeverEvicted: pending entries must survive even a
// tiny window, or a retry could re-execute an in-flight upload.
func TestIdemStorePendingNeverEvicted(t *testing.T) {
	st := newIdemStore(2, 0, nil)
	for i := 0; i < 6; i++ {
		if _, isNew := st.begin(fmt.Sprintf("u%d", i), "k", 0); !isNew {
			t.Fatalf("entry %d not new", i)
		}
	}
	for i := 0; i < 6; i++ {
		if _, isNew := st.begin(fmt.Sprintf("u%d", i), "k", 0); isNew {
			t.Fatalf("pending entry %d was evicted: a retry would double-commit", i)
		}
	}
}

// TestIdemStoreFailureCompactsOrder: repeated failures release their map
// entries and must not leave the order slice growing without bound.
func TestIdemStoreFailureCompactsOrder(t *testing.T) {
	st := newIdemStore(64, 0, nil)
	for i := 0; i < 10000; i++ {
		user := fmt.Sprintf("u%d", i)
		e, _ := st.begin(user, "k", 0)
		st.complete(user, "k", e, UploadResponse{}, fmt.Errorf("boom"))
	}
	st.mu.Lock()
	entries, order := len(st.entries), len(st.order)
	st.mu.Unlock()
	if entries != 0 {
		t.Fatalf("failed entries retained: %d", entries)
	}
	if order > 2*64+16+1 {
		t.Fatalf("order slice leaked to %d dead keys", order)
	}
}

// TestIdempotencyShedAsyncJobStaysPollable: when a keyed async upload is
// shed (its wait for queue space abandoned), the job handle a concurrent
// replay may have seen must resolve to "failed", not 404, and a retry
// under the key must not be answered 500.
func TestIdempotencyShedAsyncJobStaysPollable(t *testing.T) {
	gp := &gatedProtector{started: make(chan string, 8), gate: make(chan struct{})}
	srv, err := New(gp, WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)

	// Occupy the worker, then fill the queue.
	go uploadOne(c, trace.New("occupant", sampleRecords(3))) //nolint:errcheck
	select {
	case <-gp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("occupant never reached the protector")
	}
	if _, err := uploadOneAsync(c, trace.New("filler", sampleRecords(3))); err != nil {
		t.Fatal(err)
	}

	// A keyed async chunk whose client gives up while the queue is full
	// is shed; its job must be failed-pollable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := srv.executeChunk(ctx, trace.New("frank", sampleRecords(3)), "frank-day-1", true); out.status != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", out.status)
	}

	// The job the (hypothetical) concurrent replay saw resolves "failed".
	srv.jobs.mu.Lock()
	var jid string
	for id, j := range srv.jobs.jobs {
		if j.User == "frank" {
			jid = id
		}
	}
	srv.jobs.mu.Unlock()
	if jid == "" {
		t.Fatal("shed keyed job was removed; a replayed 202 would 404")
	}
	j, ok := srv.jobs.get(jid)
	if !ok || j.State != JobFailed {
		t.Fatalf("shed keyed job state = %+v, want failed", j)
	}

	// The shed released the key, so the retry truly executes: it is
	// accepted as a fresh job, never answered 500.
	close(gp.gate)
	r2 := idemPost(t, hs, BatchChunk{User: "frank", Records: sampleRecords(3), Key: "frank-day-1", Async: true})
	if r2.Status != http.StatusAccepted || r2.Replay || r2.Job == nil || r2.Job.ID == jid {
		t.Fatalf("retry after shed = %+v, want a fresh 202 job", r2)
	}
}

// TestIdempotencyPayloadMismatch: reusing a key with a different body is
// a client bug and must be rejected, not silently answered with the
// first body's result.
func TestIdempotencyPayloadMismatch(t *testing.T) {
	srv, hs := newTestServer(t)
	if r, _ := idemUpload(t, hs, "gina", "day-1", 20); r.Status != http.StatusOK {
		t.Fatalf("first upload: %d", r.Status)
	}
	// Same key, different records (different count → different payload).
	r2, _ := idemUpload(t, hs, "gina", "day-1", 21)
	if r2.Status != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched payload reuse: %d, want 422", r2.Status)
	}
	if st := srv.Stats(); st.Uploads != 1 || st.RecordsIn != 20 {
		t.Fatalf("mismatched payload affected state: %+v", st)
	}
	// The identical payload still replays fine afterwards.
	r3, _ := idemUpload(t, hs, "gina", "day-1", 20)
	if r3.Status != http.StatusOK || !r3.Replay {
		t.Fatalf("replay after mismatch: %d", r3.Status)
	}
}

// TestIdempotencyAsyncReplayAfterJobEviction: an async replay whose job
// handle was evicted from the job store must still get a JobStatus (the
// async contract), rebuilt from the entry's outcome.
func TestIdempotencyAsyncReplayAfterJobEviction(t *testing.T) {
	srv, hs := newTestServer(t)
	post := func() BatchResult {
		return idemPost(t, hs, BatchChunk{User: "hank", Records: sampleRecords(12), Key: "hank-day-1", Async: true})
	}
	r1 := post()
	if r1.Status != http.StatusAccepted || r1.Job == nil {
		t.Fatalf("first async: %+v", r1)
	}
	j1 := *r1.Job
	// Join the upload, then evict the job handle. The entry completes
	// before the job is marked done, and remove tolerates either order.
	waitIdemDone(t, srv, "hank", "hank-day-1", sampleRecords(12))
	srv.jobs.remove(j1.ID)

	r2 := post()
	if r2.Status != http.StatusOK || r2.Job == nil {
		t.Fatalf("post-eviction async replay: %+v, want 200 with a job", r2)
	}
	j2 := *r2.Job
	if j2.ID != j1.ID || j2.State != JobDone || j2.Result == nil || j2.Result.Accepted != 12 {
		t.Fatalf("rebuilt JobStatus wrong: %+v", j2)
	}
	if st := srv.Stats(); st.Uploads != 1 {
		t.Fatalf("replay committed again: %+v", st)
	}
}

// TestIdemStoreTTLExpiry: with a TTL configured, completed entries age
// out on the (virtual) clock and their keys become fresh again, while
// entries inside the window keep replaying.
func TestIdemStoreTTLExpiry(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	st := newIdemStore(64, time.Hour, clk)

	e, isNew := st.begin("alice", "day-1", 7)
	if !isNew {
		t.Fatal("first begin not new")
	}
	st.complete("alice", "day-1", e, UploadResponse{Accepted: 3}, nil)

	// Inside the TTL the key replays.
	clk.Advance(59 * time.Minute)
	if _, isNew := st.begin("alice", "day-1", 7); isNew {
		t.Fatal("key expired inside the TTL")
	}
	// Past the TTL the key is forgotten: a retry re-executes.
	clk.Advance(2 * time.Minute)
	if _, isNew := st.begin("alice", "day-1", 7); !isNew {
		t.Fatal("key still replaying past the TTL")
	}
}

// TestIdemStoreTTLSweepReclaimsMemory: the rate-limited background
// sweep must reclaim expired entries' memory even for keys that are
// never looked up again.
func TestIdemStoreTTLSweepReclaimsMemory(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	st := newIdemStore(4096, time.Hour, clk)
	for i := 0; i < 100; i++ {
		user := fmt.Sprintf("u%d", i)
		e, _ := st.begin(user, "k", 0)
		st.complete(user, "k", e, UploadResponse{}, nil)
	}
	clk.Advance(2 * time.Hour)
	// An unrelated begin triggers the sweep (last sweep was 2 h ago).
	st.begin("fresh", "k", 0)
	st.mu.Lock()
	n := len(st.entries)
	st.mu.Unlock()
	if n != 1 {
		t.Fatalf("sweep left %d entries, want 1 (the fresh one)", n)
	}
}

// TestIdemStoreTTLNeverExpiresPending: a pending entry must survive any
// amount of virtual time — expiring it would let a retry double-commit
// an upload that is still executing.
func TestIdemStoreTTLNeverExpiresPending(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	st := newIdemStore(64, time.Minute, clk)
	if _, isNew := st.begin("bob", "k", 1); !isNew {
		t.Fatal("first begin not new")
	}
	clk.Advance(24 * time.Hour)
	if _, isNew := st.begin("bob", "k", 1); isNew {
		t.Fatal("pending entry expired; the retry would re-execute a live upload")
	}
}

// TestIdempotencyTTLEndToEnd drives the TTL through the HTTP handler on
// a manual clock: a keyed retry inside the window replays; after the
// window has passed, the same key executes a fresh upload.
func TestIdempotencyTTLEndToEnd(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	fp := &fakeProtector{}
	srv, err := New(fp, WithClock(clk), WithIdempotencyTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	if r, _ := idemUpload(t, hs, "ada", "chunk-1", 9); r.Status != http.StatusOK {
		t.Fatalf("first upload: %d", r.Status)
	}
	clk.Advance(30 * time.Minute)
	r2, _ := idemUpload(t, hs, "ada", "chunk-1", 9)
	if r2.Status != http.StatusOK || !r2.Replay {
		t.Fatalf("retry inside TTL: %d replay=%v", r2.Status, r2.Replay)
	}
	if srv.Stats().Uploads != 1 {
		t.Fatalf("replay committed: %+v", srv.Stats())
	}

	clk.Advance(2 * time.Hour)
	r3, _ := idemUpload(t, hs, "ada", "chunk-1", 9)
	if r3.Status != http.StatusOK || r3.Replay {
		t.Fatalf("retry past TTL replayed instead of executing: %d", r3.Status)
	}
	if fp.calls != 2 || srv.Stats().Uploads != 2 {
		t.Fatalf("expired key did not re-execute: calls=%d stats=%+v", fp.calls, srv.Stats())
	}
}
