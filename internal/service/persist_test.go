package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"mood/internal/trace"
)

func TestWithAuth(t *testing.T) {
	srv, err := New(&fakeProtector{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(WithAuth("sesame", srv.Handler()))
	defer hs.Close()

	// No token: rejected.
	noAuth := NewClient(hs.URL)
	if _, err := uploadOne(noAuth, trace.New("alice", sampleRecords(3))); err == nil {
		t.Fatal("unauthenticated upload must fail")
	}
	// Wrong token: rejected.
	wrong := NewClient(hs.URL).SetAuthToken("not-sesame")
	if _, err := wrong.Stats(); err == nil {
		t.Fatal("wrong token must fail")
	}
	// Right token: accepted.
	ok := NewClient(hs.URL).SetAuthToken("sesame")
	if _, err := uploadOne(ok, trace.New("alice", sampleRecords(3))); err != nil {
		t.Fatal(err)
	}
	// Health stays open for probes.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth = %d", resp.StatusCode)
	}
}
