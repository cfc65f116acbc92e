package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mood/internal/core"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/trace"
)

// checker collects output-check violations.
type checker struct{ violations []string }

func (c *checker) failf(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// ledger is the client's own account of what it sent and what the
// service accepted, checked against /v2/stats after the run.
type ledger struct {
	uploads, records int
	users            map[string]bool
}

func newLedger() ledger { return ledger{users: map[string]bool{}} }

// checkOutcomes checks every op's answer: each upload accepted, each
// invalid request rejected with a 4xx, and each accepted upload's
// records conserved (accepted + rejected = sent, one mechanism per
// piece). Accepted uploads enter the ledger.
func checkOutcomes(ck *checker, led *ledger, outs []outcome) {
	for _, o := range outs {
		if !o.ok {
			ck.failf("op %d for %q failed: status %d %s", o.op.kind, o.op.user, o.status, o.detail)
			continue
		}
		if o.op.kind != opUpload {
			continue
		}
		n := o.op.c.tr.Len()
		if o.resp.Accepted+o.resp.Rejected != n || o.resp.Pieces != len(o.resp.Mechanisms) {
			ck.failf("upload of %q: %d records came back as %+v", o.op.user, n, *o.resp)
		}
		led.uploads++
		led.records += n
		led.users[o.op.user] = true
	}
}

// responseOf is the UploadResponse the service derives from a Result.
func responseOf(r core.Result) service.UploadResponse {
	resp := service.UploadResponse{Accepted: r.ProtectedRecords(), Rejected: r.LostRecords, Pieces: len(r.Pieces)}
	for _, p := range r.Pieces {
		resp.Mechanisms = append(resp.Mechanisms, p.Mechanism)
	}
	return resp
}

// checkSample re-protects a seeded sample of accepted uploads in
// process and requires the service's answers to match field by field.
func checkSample(ck *checker, outs []outcome, seed uint64, n int, protect func(trace.Trace) (core.Result, error)) {
	var idx []int
	for i, o := range outs {
		if o.ok && o.op.kind == opUpload {
			idx = append(idx, i)
		}
	}
	mathx.Shuffle(mathx.DeriveRand(seed, "perfbench-sample"), idx)
	if len(idx) > n {
		idx = idx[:n]
	}
	sort.Ints(idx)
	for _, i := range idx {
		o := outs[i]
		res, err := protect(o.op.c.tr)
		if err != nil {
			ck.failf("in-process protect of %q: %v", o.op.user, err)
			continue
		}
		want := responseOf(res)
		got := *o.resp
		if got.Accepted != want.Accepted || got.Rejected != want.Rejected || got.Pieces != want.Pieces ||
			!slices.Equal(got.Mechanisms, want.Mechanisms) {
			ck.failf("upload of %q answered %+v, in-process Protect gives %+v", o.op.user, got, want)
		}
	}
}

// checkStats checks the service's conservation laws against the
// ledger, the laws internal/loadgen/invariants.go enforces. It returns
// the final global stats.
func checkStats(ck *checker, svc *service.Client, led ledger) service.ServerStats {
	st, err := svc.Stats()
	if err != nil {
		ck.failf("stats: %v", err)
		return st
	}
	if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
		ck.failf("records_in %d != published %d + rejected %d", st.RecordsIn, st.RecordsPublished, st.RecordsRejected)
	}
	if st.Uploads != led.uploads || st.RecordsIn != led.records || st.Users != len(led.users) {
		ck.failf("service saw %d uploads / %d records / %d users, client had %d / %d / %d accepted",
			st.Uploads, st.RecordsIn, st.Users, led.uploads, led.records, len(led.users))
	}
	if st.RecordsQuarantined > 0 && st.QuarantinedTraces == 0 {
		ck.failf("quarantined records %d with zero quarantined traces", st.RecordsQuarantined)
	}
	users := make([]string, 0, len(led.users))
	for u := range led.users {
		users = append(users, u)
	}
	sort.Strings(users)
	var sum service.UserStats
	for _, u := range users {
		us, err := svc.UserStats(u)
		if err != nil {
			ck.failf("user %s: %v", u, err)
			continue
		}
		if us.RecordsIn != us.RecordsPublished+us.RecordsRejected {
			ck.failf("user %s: records_in %d != published %d + rejected %d", u, us.RecordsIn, us.RecordsPublished, us.RecordsRejected)
		}
		sum.Uploads += us.Uploads
		sum.RecordsIn += us.RecordsIn
		sum.RecordsPublished += us.RecordsPublished
		sum.RecordsRejected += us.RecordsRejected
		sum.RecordsQuarantined += us.RecordsQuarantined
		sum.Pieces += us.Pieces
		sum.PiecesQuarantined += us.PiecesQuarantined
	}
	if sum.Uploads != st.Uploads || sum.RecordsIn != st.RecordsIn || sum.RecordsPublished != st.RecordsPublished ||
		sum.RecordsRejected != st.RecordsRejected || sum.RecordsQuarantined != st.RecordsQuarantined {
		ck.failf("per-user sums %+v disagree with global stats %+v", sum, st)
	}
	if sum.PiecesQuarantined != st.QuarantinedTraces || sum.Pieces-sum.PiecesQuarantined != st.PublishedTraces {
		ck.failf("pieces %d - quarantined %d vs published %d / quarantined %d traces",
			sum.Pieces, sum.PiecesQuarantined, st.PublishedTraces, st.QuarantinedTraces)
	}
	checkDataset(ck, svc, st, led)
	return st
}

// checkDataset walks the published dataset page by page: it holds no
// more fragments than are published (fragments sharing a pseudonym
// merge), none while nothing is, and never a raw uploader ID.
func checkDataset(ck *checker, svc *service.Client, st service.ServerStats, led ledger) {
	total := 0
	for pg, err := range svc.DatasetPages(service.DatasetQuery{Limit: 1000}) {
		if err != nil {
			ck.failf("dataset page: %v", err)
			return
		}
		for _, tr := range pg.Traces {
			if led.users[tr.User] {
				ck.failf("published fragment carries the raw user ID %q", tr.User)
				return
			}
		}
		total += len(pg.Traces)
	}
	if total > st.PublishedTraces || (total == 0 && st.PublishedTraces > 0) {
		ck.failf("dataset holds %d fragments, stats say %d published", total, st.PublishedTraces)
	}
}

// digestResults hashes each user's pieces — mechanism, record bits,
// source records — and lost records, in user order. Pseudonyms are
// left out.
func digestResults(results []core.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range results {
		h.Write([]byte(r.User))
		put(uint64(r.TotalRecords))
		put(uint64(r.LostRecords))
		put(uint64(len(r.Pieces)))
		for _, p := range r.Pieces {
			h.Write([]byte(p.Mechanism))
			put(uint64(p.SourceRecords))
			put(uint64(p.Trace.Len()))
			for _, rec := range p.Trace.Records {
				put(math.Float64bits(rec.Lat))
				put(math.Float64bits(rec.Lon))
				put(uint64(rec.TS))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestResponses hashes upload answers independently of commit order:
// one line per upload, sorted.
func digestResponses(outs []outcome) string {
	var lines []string
	for _, o := range outs {
		switch {
		case o.op.kind == opUpload && o.resp != nil:
			lines = append(lines, fmt.Sprintf("%s|%d|%d|%d|%s", o.op.c.key, o.resp.Accepted, o.resp.Rejected,
				o.resp.Pieces, strings.Join(o.resp.Mechanisms, ",")))
		case o.op.kind == opRetrain && o.retrain != nil:
			lines = append(lines, fmt.Sprintf("retrain|%d|%d|%d|%d", o.retrain.HistoryUsers,
				o.retrain.HistoryRecords, o.retrain.Audited, o.retrain.Quarantined))
		}
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}

// checkRelease checks an offline release: every user present, every
// record either published once or counted lost, and no published piece
// re-identified by the attacks it was protected against.
func checkRelease(ck *checker, test trace.Dataset, results []core.Result, auditor service.BatchAuditor) {
	if len(results) != len(test.Traces) {
		ck.failf("release has %d results for %d users", len(results), len(test.Traces))
		return
	}
	var ts []trace.Trace
	var owners []string
	for i, r := range results {
		if r.User != test.Traces[i].User || r.TotalRecords != test.Traces[i].Len() {
			ck.failf("result %d is for %q/%d records, want %q/%d", i, r.User, r.TotalRecords,
				test.Traces[i].User, test.Traces[i].Len())
			continue
		}
		src := r.LostRecords
		for _, p := range r.Pieces {
			src += p.SourceRecords
			if p.Trace.Empty() {
				ck.failf("user %q has an empty published piece", r.User)
			}
			ts = append(ts, p.Trace.WithUser(""))
			owners = append(owners, r.User)
		}
		if src != r.TotalRecords {
			ck.failf("user %q: pieces cover %d source records + %d lost, trace has %d",
				r.User, src-r.LostRecords, r.LostRecords, r.TotalRecords)
		}
	}
	for i, v := range auditor.ReIdentifiesBatch(ts, owners) {
		if v.Hit {
			ck.failf("published piece of %q is re-identified by %s", owners[i], v.Attack)
		}
	}
}
