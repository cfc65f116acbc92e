package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// postChunk sends one chunk line for user as a one-line /v2/traces
// batch and returns the chunk's status. async is spliced into the line
// verbatim as the "async" value and key as the idempotency key; empty
// values are omitted.
func postChunk(t *testing.T, baseURL, user, async, key string) int {
	t.Helper()
	u, err := json.Marshal(user)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := json.Marshal(sampleRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	line := `{"user":` + string(u) + `,"records":` + string(recs)
	if async != "" {
		line += `,"async":` + async
	}
	if key != "" {
		line += `,"key":"` + key + `"`
	}
	_, results := postNDJSON(t, baseURL, line+"}\n", nil)
	return results[0].Status
}

// Regression for the async-selector bug: a value that is not a JSON
// boolean must be rejected, never guessed at — a guess of "async" would
// detach the upload from the result the client is waiting on.
func TestAsyncParamValidation(t *testing.T) {
	srv, hs := newTestServer(t)

	for _, v := range []string{`"no"`, `"yes"`, `"true"`, "0", "1", "2"} {
		if code := postChunk(t, hs.URL, "bob", v, ""); code != http.StatusBadRequest {
			t.Errorf("async %s: code %d, want 400", v, code)
		}
	}
	if st := srv.Stats(); st.Uploads != 0 {
		t.Fatalf("a chunk with an invalid async selector was committed: %+v", st)
	}
	for _, v := range []string{"", "false"} {
		if code := postChunk(t, hs.URL, "alice", v, ""); code != http.StatusOK {
			t.Errorf("async %q: code %d, want 200 (sync)", v, code)
		}
	}
	if code := postChunk(t, hs.URL, "alice", "true", ""); code != http.StatusAccepted {
		t.Errorf("async true: code %d, want 202 (async)", code)
	}
}

// Regression for the routing hole: user IDs containing '/' were accepted
// at upload but unreachable via GET /v2/users/{id} (a path segment),
// leaving accounting no client could ever read.
func TestUserIDValidation(t *testing.T) {
	_, hs := newTestServer(t)

	bad := []string{
		"a/b",
		"/leading",
		"trailing/",
		"tab\there",
		"new\nline",
		"nul\x00byte",
		"bell\x07",
		"del\x7f",
		strings.Repeat("x", maxUserIDLen+1),
	}
	for _, id := range bad {
		if code := postChunk(t, hs.URL, id, "", ""); code != http.StatusBadRequest {
			t.Errorf("user %q: code %d, want 400", id, code)
		}
	}

	// Valid IDs upload fine and stay reachable through the users route —
	// the invariant the validation exists to protect.
	good := []string{"alice", "user-42", "Ünïcôdé", "dots.and_underscores", strings.Repeat("y", maxUserIDLen)}
	c := NewClient(hs.URL)
	for _, id := range good {
		if code := postChunk(t, hs.URL, id, "", ""); code != http.StatusOK {
			t.Fatalf("user %q: code %d, want 200", id, code)
		}
		us, err := c.UserStats(id)
		if err != nil {
			t.Fatalf("user %q unreachable after upload: %v", id, err)
		}
		if us.Uploads != 1 {
			t.Fatalf("user %q stats = %+v", id, us)
		}
	}
}

// The async validation also applies to idempotent replays: an invalid
// async value on a retry is rejected before the key is consulted.
func TestAsyncParamValidationOnKeyedRetry(t *testing.T) {
	_, hs := newTestServer(t)
	if code := postChunk(t, hs.URL, "alice", "", "k1"); code != http.StatusOK {
		t.Fatalf("original upload: %d", code)
	}
	if code := postChunk(t, hs.URL, "alice", `"maybe"`, "k1"); code != http.StatusBadRequest {
		t.Fatalf("retry with invalid async: %d, want 400", code)
	}
}

func TestValidateUserIDUnit(t *testing.T) {
	if err := validateUserID(""); err == nil {
		t.Error("empty id accepted")
	}
	if err := validateUserID("ok"); err != nil {
		t.Errorf("plain id rejected: %v", err)
	}
	if err := validateUserID(fmt.Sprintf("sp%cce", ' ')); err != nil {
		t.Errorf("space rejected: %v", err)
	}
}
