package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mood"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/synth"
	"mood/internal/traceio"
)

func TestRunFlagErrors(t *testing.T) {
	tests := [][]string{
		{},                                    // missing -background
		{"-background", "/nonexistent.csv"},   // unreadable file
		{"-background", "/dev/null", "-addr"}, // broken flag
		{"-background", "/dev/null", "-state", "s.json"},                            // retired snapshot flag
		{"-background", "/dev/null", "-store", "wal"},                               // retired backend flag
		{"-background", "/dev/null", "-wal-dir", os.DevNull, "-fsync", "sometimes"}, // bad fsync mode
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestServerServesAfterStartup(t *testing.T) {
	// Write a tiny background and start the real server on an ephemeral
	// port; then probe /healthz.
	cfg := synth.PrivamovLike(synth.ScaleTiny, 31)
	cfg.NumUsers = 4
	cfg.Days = 4
	d := synth.MustGenerate(cfg)
	bg := filepath.Join(t.TempDir(), "bg.csv")
	if err := traceio.SaveCSVFile(bg, d); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	errc := make(chan error, 1)
	go func() { errc <- run([]string{"-background", bg, "-addr", addr}) }()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-errc:
			t.Fatalf("server exited early: %v", err)
		case <-deadline:
			t.Fatal("server never became healthy")
		default:
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return // success; the goroutine dies with the process
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestGracefulShutdownFlushesState pins the graceful shutdown path:
// cancelling the server drains the queue and installs a final
// checkpoint in -wal-dir that covers every accepted upload, so the next
// boot replays a snapshot instead of the whole log.
func TestGracefulShutdownFlushesState(t *testing.T) {
	cfg := synth.PrivamovLike(synth.ScaleTiny, 33)
	cfg.NumUsers = 4
	cfg.Days = 4
	d := synth.MustGenerate(cfg)
	bg := filepath.Join(t.TempDir(), "bg.csv")
	if err := traceio.SaveCSVFile(bg, d); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(t.TempDir(), "wal")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runCtx(ctx, []string{"-background", bg, "-addr", addr, "-wal-dir", walDir})
	}()

	c := service.NewClient("http://" + addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Stats(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// One upload, then immediate shutdown: well inside the one-minute
	// periodic checkpoint window, so only the final flush can cover it.
	uploadChunk(t, c, d.Traces[0].Chunks(24 * time.Hour)[0])
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}

	w, err := store.NewWAL(store.WALOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data, recs, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("final checkpoint left %d log records uncovered", len(recs))
	}
	var state struct {
		Stats service.ServerStats `json:"stats"`
	}
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatalf("no final snapshot written: %v", err)
	}
	if state.Stats.Uploads < 1 {
		t.Fatalf("snapshot lost the upload: %+v", state.Stats)
	}
}

// uploadChunk sends one chunk as a one-line batch and requires it to be
// protected and published.
func uploadChunk(t *testing.T, c *service.Client, chunk mood.Trace) {
	t.Helper()
	res, err := c.UploadBatch([]service.BatchChunk{{User: chunk.User, Records: chunk.Records}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != http.StatusOK {
		t.Fatalf("upload: %+v", res[0])
	}
}

// TestAdminRetrainEndToEnd drives the dynamic-protection wiring through
// the real binary: upload raw chunks, trigger POST /v2/admin/retrain,
// and check the server rebuilt its attacks on background + history,
// re-audited the published dataset, and kept serving uploads.
func TestAdminRetrainEndToEnd(t *testing.T) {
	cfg := synth.PrivamovLike(synth.ScaleTiny, 35)
	cfg.NumUsers = 4
	cfg.Days = 4
	d := synth.MustGenerate(cfg)
	bg := filepath.Join(t.TempDir(), "bg.csv")
	if err := traceio.SaveCSVFile(bg, d); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runCtx(ctx, []string{"-background", bg, "-addr", addr, "-history-cap", "1000"})
	}()

	c := service.NewClient("http://" + addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Stats(); err == nil {
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("server exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}

	chunk := d.Traces[0].Chunks(24 * time.Hour)[0]
	uploadChunk(t, c, chunk)

	report, err := c.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if report.HistoryUsers != 1 || report.HistoryRecords != chunk.Len() {
		t.Fatalf("retrain trained on %d users / %d records, want 1/%d",
			report.HistoryUsers, report.HistoryRecords, chunk.Len())
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retrains != 1 {
		t.Fatalf("stats after retrain: %+v", st)
	}

	// The swapped engine keeps serving.
	uploadChunk(t, c, d.Traces[1].Chunks(24 * time.Hour)[0])

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}
