package main

import (
	"io/fs"
	"net/http"
	"strconv"

	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/mathx"
	"mood/internal/metrics"
	"mood/internal/service"
	"mood/internal/store"
	"mood/internal/trace"
)

// The wrappers below time each layer at an interface the program
// already dispatches through, and change nothing about what crosses
// it: a traced run must publish exactly what an untraced run does.

// requestIDHeader carries the benchmark's request id to the router and
// the node, which forward request headers unchanged.
const requestIDHeader = "X-Request-ID"

// tracedHandler wraps a node's or the router's http.Handler. kind is
// "service" or "cluster"; the span is named after the route class.
type tracedHandler struct {
	rec  *recorder
	kind string
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	i := h.rec.beginHandler(h.kind+"."+routeClass(r), req)
	defer h.rec.end(i)
	h.next.ServeHTTP(w, r)
}

// routeClass names the handler span after the route family.
func routeClass(r *http.Request) string {
	switch r.URL.Path {
	case "/v2/traces":
		return "upload"
	case "/v2/dataset":
		return "dataset"
	case "/v2/stats":
		return "stats"
	case "/v2/admin/retrain":
		return "retrain"
	}
	return "other"
}

// tracedProtector wraps service.Protector: the span runs from the
// worker's call into the engine to its return, and the Result's work
// counters are summed.
type tracedProtector struct {
	rec  *recorder
	next service.Protector
}

func (p tracedProtector) Protect(t trace.Trace) (core.Result, error) {
	var first int64
	if t.Len() > 0 {
		first = t.Records[0].TS
	}
	req := p.rec.startJob(chunkKey(t.User, first, t.Len()), t.User)
	i := p.rec.begin("core.protect", req)
	res, err := p.next.Protect(t)
	p.rec.end(i)
	p.rec.mu.Lock()
	p.rec.candidates += int64(res.Stats.Candidates)
	p.rec.attackCalls += int64(res.Stats.AttackCalls)
	p.rec.splits += int64(res.Stats.SplitCount)
	p.rec.pieces += int64(len(res.Pieces))
	p.rec.mu.Unlock()
	return res, err
}

// tracedMechanism wraps lppm.Mechanism. Name is passed through, so
// compositions and the engine's per-candidate seeds are unchanged.
type tracedMechanism struct {
	rec  *recorder
	span string
	m    lppm.Mechanism
}

func (w tracedMechanism) Name() string { return w.m.Name() }

func (w tracedMechanism) Obfuscate(rng *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	i := w.rec.begin(w.span, 0)
	defer w.rec.end(i)
	return w.m.Obfuscate(rng, t)
}

// tracedAttack wraps attack.Attack on the engine's scalar
// Set.ReIdentifies path. A hit is a verdict naming the true owner of
// the upload being protected.
type tracedAttack struct {
	rec  *recorder
	span string
	a    attack.Attack
}

func (w tracedAttack) Name() string                         { return w.a.Name() }
func (w tracedAttack) Train(background []trace.Trace) error { return w.a.Train(background) }

func (w tracedAttack) Identify(t trace.Trace) attack.Verdict {
	owner := w.rec.currentJob().owner
	i := w.rec.begin(w.span, 0)
	v := w.a.Identify(t)
	w.rec.end(i)
	hit := int64(0)
	if v.OK && v.User == owner {
		hit = 1
	}
	w.rec.mu.Lock()
	w.rec.identifyCalls++
	w.rec.identifyHits += hit
	w.rec.mu.Unlock()
	return v
}

// tracedUtility wraps metrics.Utility.
type tracedUtility struct {
	rec *recorder
	u   metrics.Utility
}

func (w tracedUtility) Name() string             { return w.u.Name() }
func (w tracedUtility) Better(a, b float64) bool { return w.u.Better(a, b) }

func (w tracedUtility) Measure(original, obfuscated trace.Trace) float64 {
	i := w.rec.begin("metrics.std", 0)
	defer w.rec.end(i)
	return w.u.Measure(original, obfuscated)
}

// tracedRetrainer wraps service.Retrainer. The span covers building
// the new engine (attack training and the HMC pool); the auditor it
// returns is wrapped so the audit pass is timed too.
type tracedRetrainer struct {
	rec  *recorder
	next service.Retrainer
}

func (w tracedRetrainer) Retrain(history []trace.Trace) (service.Protector, service.Auditor, error) {
	i := w.rec.begin("attack.train", 0)
	p, a, err := w.next.Retrain(history)
	w.rec.end(i)
	if err != nil || a == nil {
		return p, a, err
	}
	ba, ok := a.(service.BatchAuditor)
	if !ok {
		return p, a, err
	}
	return p, tracedAuditor{rec: w.rec, next: ba}, nil
}

// tracedAuditor keeps the BatchAuditor fast path the audit prefers.
type tracedAuditor struct {
	rec  *recorder
	next service.BatchAuditor
}

func (w tracedAuditor) ReIdentifies(t trace.Trace, user string) (bool, string) {
	i := w.rec.begin("attack.audit", 0)
	hit, name := w.next.ReIdentifies(t, user)
	w.rec.end(i)
	w.rec.mu.Lock()
	w.rec.auditPairs++
	if hit {
		w.rec.auditHits++
	}
	w.rec.mu.Unlock()
	return hit, name
}

func (w tracedAuditor) ReIdentifiesBatch(ts []trace.Trace, users []string) []attack.ReIdent {
	i := w.rec.begin("attack.audit", 0)
	out := w.next.ReIdentifiesBatch(ts, users)
	w.rec.end(i)
	w.rec.mu.Lock()
	w.rec.auditPairs += int64(len(ts))
	for _, r := range out {
		if r.Hit {
			w.rec.auditHits++
		}
	}
	w.rec.mu.Unlock()
	return out
}

// tracedStore wraps store.Store. Appends run on the upload worker right
// after Protect, so they join that upload's request.
type tracedStore struct {
	rec  *recorder
	next store.Store
}

func (w tracedStore) Name() string { return w.next.Name() }

func (w tracedStore) Append(recs ...store.Record) error {
	i := w.rec.begin("store.append", w.rec.currentJob().req)
	err := w.next.Append(recs...)
	w.rec.end(i)
	w.rec.mu.Lock()
	w.rec.appends++
	w.rec.appendRecords += int64(len(recs))
	w.rec.mu.Unlock()
	return err
}

func (w tracedStore) Load() ([]byte, []store.Record, error) {
	i := w.rec.begin("store.load", 0)
	defer w.rec.end(i)
	return w.next.Load()
}

func (w tracedStore) Mark() (store.Pos, error) { return w.next.Mark() }
func (w tracedStore) Compact(snapshot []byte, pos store.Pos) error {
	return w.next.Compact(snapshot, pos)
}
func (w tracedStore) NeedsCompaction() bool { return w.next.NeedsCompaction() }
func (w tracedStore) Close() error          { return w.next.Close() }

// tracedFS wraps store.FS so the WAL's file syncs and bytes show.
type tracedFS struct {
	rec  *recorder
	next store.FS
}

func (w tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	f, err := w.next.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{rec: w.rec, f: f}, nil
}

func (w tracedFS) ReadFile(name string) ([]byte, error)        { return w.next.ReadFile(name) }
func (w tracedFS) ReadDir(dir string) ([]string, error)        { return w.next.ReadDir(dir) }
func (w tracedFS) Rename(oldname, newname string) error        { return w.next.Rename(oldname, newname) }
func (w tracedFS) Remove(name string) error                    { return w.next.Remove(name) }
func (w tracedFS) Truncate(name string, size int64) error      { return w.next.Truncate(name, size) }
func (w tracedFS) MkdirAll(dir string, perm fs.FileMode) error { return w.next.MkdirAll(dir, perm) }

func (w tracedFS) SyncDir(dir string) error {
	i := w.rec.begin("store.fsync", 0)
	defer w.rec.end(i)
	return w.next.SyncDir(dir)
}

type tracedFile struct {
	rec *recorder
	f   store.File
}

func (w tracedFile) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.rec.add(&w.rec.bytes, int64(n))
	return n, err
}

func (w tracedFile) Sync() error {
	i := w.rec.begin("store.fsync", 0)
	defer w.rec.end(i)
	return w.f.Sync()
}

func (w tracedFile) Close() error { return w.f.Close() }
