package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"mood/internal/clock"
)

// span is one timed call across a layer boundary. Parent is the index
// of the enclosing span (-1 for a root); Req groups the spans of one
// client request (0 when the span belongs to none).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced pass in memory. Nesting on one
// goroutine is tracked with a per-goroutine stack of open spans; the
// hops the program makes across goroutines (HTTP handler → upload
// worker) are stitched back together by request id: the client
// registers each chunk under the id it sends in X-Request-ID, and the
// Protector wrapper looks the chunk up again on the worker.
type recorder struct {
	clk    clock.Clock
	origin time.Time

	mu       sync.Mutex
	spans    []span
	open     map[uint64][]int32 // goroutine → stack of open spans
	job      map[uint64]jobCtx  // goroutine → upload it is working on
	chunkReq map[string]uint64  // chunk key → request id
	reqRoot  map[uint64]int32   // request → innermost handler span
	nextReq  uint64

	// Counters read off the values crossing the wrapped interfaces.
	candidates, attackCalls, splits, pieces int64
	identifyCalls, identifyHits             int64
	auditPairs, auditHits                   int64
	appends, appendRecords, bytes           int64
}

// jobCtx is what a worker goroutine is doing: the request and the
// true owner of the trace it protects (attack wrappers judge hits
// against it, exactly like attack.Set.ReIdentifies).
type jobCtx struct {
	req   uint64
	owner string
}

func newRecorder(clk clock.Clock, origin time.Time) *recorder {
	return &recorder{
		clk:      clk,
		origin:   origin,
		open:     map[uint64][]int32{},
		job:      map[uint64]jobCtx{},
		chunkReq: map[string]uint64{},
		reqRoot:  map[uint64]int32{},
		nextReq:  1 << 40, // ids minted here never collide with client ids
	}
}

func (r *recorder) now() int64 { return int64(r.clk.Since(r.origin)) }

// goid returns the current goroutine's id from the header line of its
// stack trace ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span on the calling goroutine. Its parent is the
// innermost open span of the goroutine, else the request's innermost
// handler span. A zero req inherits the parent's request.
func (r *recorder) begin(name string, req uint64) int32 {
	g := goid()
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if st := r.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	} else if req != 0 {
		if root, ok := r.reqRoot[req]; ok {
			parent = root
		}
	}
	if req == 0 && parent >= 0 {
		req = r.spans[parent].Req
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: t, End: -1})
	r.open[g] = append(r.open[g], i)
	return i
}

// beginHandler opens a request's handler span and makes it the parent
// of the request's later spans on other goroutines.
func (r *recorder) beginHandler(name string, req uint64) int32 {
	if req == 0 {
		r.mu.Lock()
		r.nextReq++
		req = r.nextReq
		r.mu.Unlock()
	}
	i := r.begin(name, req)
	r.mu.Lock()
	r.reqRoot[req] = i
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int32) {
	g := goid()
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
	st := r.open[g]
	for k := len(st) - 1; k >= 0; k-- {
		if st[k] == i {
			st = append(st[:k], st[k+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(r.open, g)
	} else {
		r.open[g] = st
	}
}

// registerChunk records the request id a chunk is about to be sent
// under; the traced Protector finds it again by the chunk's content.
func (r *recorder) registerChunk(key string, req uint64) {
	r.mu.Lock()
	r.chunkReq[key] = req
	r.mu.Unlock()
}

// startJob binds the calling worker goroutine to the upload it is
// about to protect and returns the upload's request id.
func (r *recorder) startJob(key, owner string) uint64 {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	req := r.chunkReq[key]
	r.job[g] = jobCtx{req: req, owner: owner}
	return req
}

// currentJob is the upload the calling goroutine last started.
func (r *recorder) currentJob() jobCtx {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.job[g]
}

func (r *recorder) add(field *int64, n int64) {
	r.mu.Lock()
	*field += n
	r.mu.Unlock()
}

// snapshot returns the spans in recording order.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End < 0 {
			s.End = s.Start // still open at the end of the pass: count nothing
		}
		out = append(out, s)
	}
	return out
}

// chunkKey identifies a chunk by content, the only thing the Protector
// interface carries: its user, first timestamp and record count.
func chunkKey(user string, firstTS int64, n int) string {
	return user + "|" + strconv.FormatInt(firstTS, 10) + "|" + strconv.Itoa(n)
}

// interval is a half-open [lo, hi) stretch of recorder time.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}
