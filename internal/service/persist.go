package service

import (
	"encoding/json"
	"fmt"

	"mood/internal/trace"
)

// persistedFrag is the on-disk form of one published fragment. Owner is
// the true uploader — required to re-audit the fragment after a retrain
// (the protection predicate asks whether the attacks link the fragment
// back to its real user). It never leaves the store. Seq is the
// fragment's durable audit handle: keeping it stable across restarts
// lets WAL quarantine records name fragments a snapshot carried, and
// keeps the dataset ETag honest across a reboot.
type persistedFrag struct {
	Seq   int64       `json:"seq,omitempty"`
	Trace trace.Trace `json:"trace"`
	Owner string      `json:"owner"`
}

// persistedState is the checkpoint snapshot of a Server. Shards are
// merged on capture and redistributed on recovery.
type persistedState struct {
	Fragments []persistedFrag           `json:"fragments,omitempty"`
	Users     map[string]*UserStats     `json:"users"`
	Stats     ServerStats               `json:"stats"`
	Pseudo    int                       `json:"pseudo"`
	History   map[string][]trace.Record `json:"history,omitempty"`
	// Idempotency carries the completed dedupe entries so a keyed retry
	// that straddles a restart replays the original outcome instead of
	// committing the chunk twice.
	Idempotency []persistedIdem `json:"idempotency,omitempty"`
	// Jobs carries the terminal (done/failed) async job handles so
	// GET /v2/jobs/{id} keeps answering for completed uploads after a
	// restart. Queued/running handles are still process-local: they
	// drain before the shutdown checkpoint, and a periodic checkpoint
	// cannot vouch for them.
	Jobs     []JobStatus `json:"jobs,omitempty"`
	Retrains int64       `json:"retrains,omitempty"`
	// FragSeq is the sequence watermark at capture time, so a reboot
	// never reissues a seq a WAL record might still name.
	FragSeq int64 `json:"frag_seq,omitempty"`
}

// captureState serialises the server's state as one snapshot.
// Checkpoint calls it under the write side of the consistency barrier.
func (s *Server) captureState() ([]byte, error) {
	// Capture order is monotone with the pipeline's completion order:
	// jobs first, then the idempotency table, then the shards. A job is
	// marked terminal only after its idempotency entry completed, and
	// an entry completes only after the commit — so every terminal job
	// in the earlier capture has its entry in the next one, and every
	// entry has its records in the shard snapshot. The opposite order
	// could persist an entry whose commit the shard snapshot missed —
	// after a restore, the client's retry would replay a 200 for
	// records that are in neither the dataset nor the accounting
	// (silent loss behind an OK). This order's only tear is a commit
	// without its entry, which makes the retry re-execute: a possible
	// duplicate, which is the pipeline's documented at-least-once
	// behaviour for unkeyed retries anyway. (Under the storeGate write
	// lock the capture is a single point in time and even that tear
	// cannot happen.)
	jobs := s.jobs.terminal()
	idem := s.idem.snapshot()
	published, history, users, stats := s.fullSnapshot()
	frags := make([]persistedFrag, len(published))
	for i, f := range published {
		frags[i] = persistedFrag{Seq: f.Seq, Trace: f.Trace, Owner: f.Owner}
	}
	state := persistedState{
		Fragments:   frags,
		Users:       users,
		Stats:       stats,
		Pseudo:      int(s.pseudo.Load()),
		History:     history,
		Idempotency: idem,
		Jobs:        jobs,
		Retrains:    s.retrains.Load(),
		FragSeq:     s.fragSeq.Load(),
	}
	data, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("service: encoding state: %w", err)
	}
	return data, nil
}

// applySnapshot replaces the server's state with a decoded snapshot.
func (s *Server) applySnapshot(data []byte) error {
	var state persistedState
	if err := json.Unmarshal(data, &state); err != nil {
		return fmt.Errorf("service: decoding state: %w", err)
	}
	if state.Users == nil {
		state.Users = map[string]*UserStats{}
	}
	frags := make([]publishedFrag, len(state.Fragments))
	maxSeq := state.FragSeq
	for i, f := range state.Fragments {
		frags[i] = publishedFrag{Seq: f.Seq, Trace: f.Trace, Owner: f.Owner}
		if f.Seq > maxSeq {
			maxSeq = f.Seq
		}
	}
	s.fragSeq.Store(maxSeq)
	s.resetShards(frags, state.History, state.Users)
	s.idem.restore(state.Idempotency)
	s.jobs.restore(state.Jobs)
	s.pseudo.Store(int64(state.Pseudo))
	s.retrains.Store(state.Retrains)
	return nil
}
