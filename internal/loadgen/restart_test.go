package loadgen

import (
	"io"
	"net/http/httptest"
	"testing"

	"mood/internal/service"
	"mood/internal/store"
)

// TestRestartUnderLoadKeepsInvariants is the restart drill with
// concurrent traffic: a loadgen scenario runs while the server is
// gracefully closed (drain + final checkpoint) and rebooted from its
// WAL in the middle of a round (via the shared Host machinery
// cmd/moodload also uses). The driver's keyed retries must absorb the
// outage, and the final accounting must satisfy every invariant —
// exactly-once delivery, record conservation, per-user aggregation,
// dataset shape — as if the restart never happened.
func TestRestartUnderLoadKeepsInvariants(t *testing.T) {
	host, err := NewWALHost(func(st store.Store) (*service.Server, error) {
		return service.New(EchoProtector{}, service.WithStore(st))
	}, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	hs := httptest.NewServer(host)
	t.Cleanup(hs.Close)

	restarted := false
	cfg, err := Scenario("restart", 21, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := host.Current()
	cfg.Restart = func() error {
		if err := host.Restart(); err != nil {
			return err
		}
		restarted = true
		return nil
	}

	rep, err := Run(cfg, hs.URL, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted {
		t.Fatal("restart callback never ran")
	}
	if host.Current() == first {
		t.Fatal("restart did not replace the server")
	}
	if !rep.OK {
		t.Fatalf("invariants broken across the restart: %+v", rep.Violations)
	}
	if rep.Requests.Uploads == 0 || rep.Requests.Replays == 0 {
		t.Fatalf("degenerate run: %+v", rep.Requests)
	}

	// The recovery invariants under concurrent traffic: the final
	// server state must round-trip through one more graceful reboot
	// unchanged.
	final := host.Current()
	if err := host.Restart(); err != nil {
		t.Fatal(err)
	}
	reborn := host.Current()
	if got, want := reborn.Stats(), final.Stats(); got != want {
		t.Fatalf("stats changed across final snapshot:\n got %+v\nwant %+v", got, want)
	}
	if got, want := len(reborn.Users()), len(final.Users()); got != want {
		t.Fatalf("users changed across final snapshot: %d vs %d", got, want)
	}
}
