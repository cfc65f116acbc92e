package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"mood/internal/core"
	"mood/internal/store"
	"mood/internal/trace"
)

// TestRestartRecoveryEndToEnd is the full restart drill: upload (sync,
// keyed), quarantine via a retrain pass, close gracefully (final
// checkpoint), boot a fresh server from the same WAL, and verify the
// published dataset, the user accounting, the global stats and
// keyed-retry replay all survived the restart bit for bit.
func TestRestartRecoveryEndToEnd(t *testing.T) {
	disk := store.NewMemFS()
	rt := RetrainerFunc(func(history []trace.Trace) (Protector, Auditor, error) {
		return nil, ownerAuditor{prefix: "drift-"}, nil
	})
	newServer := func(mark string) *Server {
		w, err := store.NewWAL(store.WALOptions{Dir: "wal", FS: disk, Fsync: store.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(&markedProtector{mark: mark}, WithRetrainer(rt, 0),
			WithStore(w), WithCheckpointInterval(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Recover(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	// upload posts one chunk as a one-line batch through the handler.
	upload := func(srv *Server, user, key string, n int) BatchResult {
		t.Helper()
		line, _ := json.Marshal(BatchChunk{User: user, Records: sampleRecords(n), Key: key})
		req := httptest.NewRequest(http.MethodPost, "/v2/traces", bytes.NewReader(append(line, '\n')))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		var res BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("upload %s: %d %s", user, rec.Code, rec.Body.String())
		}
		return res
	}
	uploadKeyed := func(srv *Server, user, key string, n int) UploadResponse {
		t.Helper()
		res := upload(srv, user, key, n)
		if res.Status != http.StatusOK {
			t.Fatalf("upload %s: %+v", user, res)
		}
		return *res.Result
	}

	srv1 := newServer("gen0")

	origResp := uploadKeyed(srv1, "alice", "chunk-2026-07-28", 10)
	uploadKeyed(srv1, "bob", "", 7)
	uploadKeyed(srv1, "drift-mallory", "", 5)

	// A retrain pass quarantines drift-mallory's fragment, so the
	// snapshot carries quarantine accounting and a retrain count too.
	if _, err := srv1.Retrain(); err != nil {
		t.Fatal(err)
	}

	wantStats := srv1.Stats()
	wantUsers := srv1.Users()
	wantDataset := trace.NewDataset("published", srv1.publishedSnapshot())
	_, _, wantUserStats, _ := srv1.fullSnapshot()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newServer("gen0")

	if got := srv2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("stats after restart:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := srv2.Users(); !reflect.DeepEqual(got, wantUsers) {
		t.Fatalf("users after restart: %v want %v", got, wantUsers)
	}
	gotDataset := trace.NewDataset("published", srv2.publishedSnapshot())
	if !reflect.DeepEqual(gotDataset, wantDataset) {
		t.Fatalf("dataset after restart:\n got %v\nwant %v", gotDataset, wantDataset)
	}
	_, _, gotUserStats, _ := srv2.fullSnapshot()
	if !reflect.DeepEqual(gotUserStats, wantUserStats) {
		t.Fatalf("user accounting after restart:\n got %v\nwant %v", gotUserStats, wantUserStats)
	}

	// Keyed retry straddling the restart: the same (user, key, body)
	// must replay the original outcome, not commit the chunk again.
	retry := upload(srv2, "alice", "chunk-2026-07-28", 10)
	if retry.Status != http.StatusOK {
		t.Fatalf("keyed retry after restart: %+v", retry)
	}
	if !retry.Replay {
		t.Fatal("keyed retry after restart was not served as a replay")
	}
	if replayed := *retry.Result; !reflect.DeepEqual(replayed, origResp) {
		t.Fatalf("replayed %+v, want original %+v", replayed, origResp)
	}
	if got := srv2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("keyed retry double-committed across restart:\n got %+v\nwant %+v", got, wantStats)
	}

	// Key reuse with a different body is still a client error after the
	// restart (the payload fingerprint survived too).
	if res := upload(srv2, "alice", "chunk-2026-07-28", 3); res.Status != http.StatusUnprocessableEntity {
		t.Fatalf("key reuse with new body after restart: %+v", res)
	}

	// The raw upload history survived: a retrain on the restarted server
	// trains on what was uploaded before the restart.
	history := srv2.historySnapshot()
	users := make([]string, 0, len(history))
	total := 0
	for _, h := range history {
		users = append(users, h.User)
		total += h.Len()
	}
	sort.Strings(users)
	if want := []string{"alice", "bob", "drift-mallory"}; !reflect.DeepEqual(users, want) {
		t.Fatalf("history users after restart = %v, want %v", users, want)
	}
	if total != 22 {
		t.Fatalf("history records after restart = %d, want 22", total)
	}
}

// identityProtector publishes every upload whole under the uploader's
// ID, which the server relabels from its own pseudonym counter.
type identityProtector struct{}

func (identityProtector) Protect(t trace.Trace) (core.Result, error) {
	return core.Result{User: t.User, TotalRecords: t.Len(),
		Pieces: []core.Piece{{Trace: t, Mechanism: "identity", SourceRecords: t.Len()}}}, nil
}

// TestPseudonymCounterSurvivesRestart: the server-issued pseudonym
// counter is durable, so an upload after a reboot never reuses a
// pseudonym already published before it.
func TestPseudonymCounterSurvivesRestart(t *testing.T) {
	disk := store.NewMemFS()
	srv1, hs1 := newWALServer(t, disk, identityProtector{})
	if _, err := uploadOne(NewClient(hs1.URL), trace.New("alice", sampleRecords(3))); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, hs2 := newWALServer(t, disk, identityProtector{})
	if _, err := uploadOne(NewClient(hs2.URL), trace.New("bob", sampleRecords(3))); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tr := range srv2.publishedSnapshot() {
		if seen[tr.User] {
			t.Fatalf("pseudonym %q reused after restart", tr.User)
		}
		seen[tr.User] = true
	}
	if len(seen) != 2 {
		t.Fatalf("published pseudonyms = %v, want 2", seen)
	}
}
