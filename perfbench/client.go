package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mood/internal/clock"
	"mood/internal/service"
	"mood/internal/trace"
)

// chunk is one generated upload: a user's records for one round.
type chunk struct {
	tr  trace.Trace
	key string // content key (see chunkKey)
}

func newChunk(tr trace.Trace) *chunk {
	return &chunk{tr: tr, key: chunkKey(tr.User, tr.Records[0].TS, tr.Len())}
}

type opKind int

const (
	opUpload  opKind = iota
	opInvalid        // a malformed chunk the service must reject with a 4xx
	opPage           // the next cursor page of GET /v2/dataset
	opStats          // GET /v2/stats
	opRetrain        // POST /v2/admin/retrain
)

// op is one client request, fully encoded before timing starts.
type op struct {
	kind opKind
	c    *chunk
	user string
	body []byte
}

// uploadOp encodes a keyed single-chunk v2 batch.
func uploadOp(c *chunk, idemKey string) op {
	line, err := json.Marshal(service.BatchChunk{User: c.tr.User, Records: c.tr.Records, Key: idemKey})
	if err != nil {
		panic(err) // records of generated traces always encode
	}
	return op{kind: opUpload, c: c, user: c.tr.User, body: append(line, '\n')}
}

// invalidOp is one of two malformed chunks: an undecodable line or a
// chunk without records.
func invalidOp(user string, variant int) op {
	line := `{nope`
	if variant%2 == 1 {
		line = `{"user":"` + user + `","records":[]}`
	}
	return op{kind: opInvalid, user: user, body: []byte(line + "\n")}
}

// outcome is what one op observed. Times are offsets on the pass clock.
type outcome struct {
	op              *op
	due, sent, done time.Duration
	req             uint64
	ok              bool
	status          int // chunk status for uploads, HTTP status otherwise
	resp            *service.UploadResponse
	retrain         *service.RetrainReport
	detail          string
}

func (o outcome) latency() time.Duration { return o.done - o.due }

// client drives one deployment with at most workers connections.
type client struct {
	base    string
	hc      *http.Client
	svc     *service.Client
	rec     *recorder
	clk     clock.Clock
	origin  time.Time
	workers int
	reqs    *atomic.Uint64 // request ids, unique across the pass's clients

	pageMu sync.Mutex
	cursor string
}

// newClient opens a client of e's pass on base. Only a traced client
// registers its uploads with the pass's recorder.
func newClient(e *env, base string, workers int, traced bool) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	hc := &http.Client{Transport: tr}
	svc := service.NewClient(base)
	svc.HTTPClient = hc
	c := &client{base: base, hc: hc, svc: svc, clk: e.clk, origin: e.origin, workers: workers, reqs: &e.reqs}
	if traced {
		c.rec = e.rec
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) now() time.Duration { return c.clk.Since(c.origin) }

// do executes one op and fills o.sent/o.done/o.ok.
func (c *client) do(o *outcome) {
	req := c.reqs.Add(1)
	o.req = req
	if c.rec != nil && o.op.kind == opUpload {
		c.rec.registerChunk(o.op.c.key, req)
	}
	o.sent = c.now()
	switch o.op.kind {
	case opUpload, opInvalid:
		c.postChunk(o, req)
	case opPage:
		c.page(o, req)
	case opStats:
		st, _, err := c.send(http.MethodGet, "/v2/stats", "", nil, req)
		o.status, o.ok = st, err == nil && st == http.StatusOK
		if err != nil {
			o.detail = err.Error()
		}
	case opRetrain:
		st, body, err := c.send(http.MethodPost, "/v2/admin/retrain", "", nil, req)
		o.status = st
		var rr service.RetrainReport
		if err == nil && st == http.StatusOK && json.Unmarshal(body, &rr) == nil {
			o.ok, o.retrain = true, &rr
		} else {
			o.detail = fmt.Sprintf("retrain answered %d: %v %s", st, err, bytes.TrimSpace(body))
		}
	}
	o.done = c.now()
}

func (c *client) send(method, path, user string, body []byte, req uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	r.Header.Set(requestIDHeader, strconv.FormatUint(req, 10))
	if user != "" {
		r.Header.Set(service.UserHeader, user)
	}
	if body != nil {
		r.Header.Set("Content-Type", service.NDJSONContentType)
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// postChunk sends one chunk line and decodes its result line. An
// invalid op succeeds when the service rejects it with a 4xx.
func (c *client) postChunk(o *outcome, req uint64) {
	st, data, err := c.send(http.MethodPost, "/v2/traces", o.op.user, o.op.body, req)
	if err != nil {
		o.detail = err.Error()
		return
	}
	o.status = st
	if st == http.StatusOK {
		var res service.BatchResult
		if err := json.Unmarshal(bytes.TrimSpace(data), &res); err != nil {
			o.detail = "undecodable result line: " + err.Error()
			return
		}
		o.status, o.resp = res.Status, res.Result
		if res.Status != http.StatusOK {
			o.detail = res.Code + ": " + res.Error
		}
	}
	if o.op.kind == opInvalid {
		o.ok = o.status >= 400 && o.status < 500
		return
	}
	o.ok = o.status == http.StatusOK && o.resp != nil
}

// page fetches the next page of a walk over the published dataset;
// the walk restarts from the first page after the last one.
func (c *client) page(o *outcome, req uint64) {
	c.pageMu.Lock()
	cur := c.cursor
	c.pageMu.Unlock()
	path := "/v2/dataset?limit=100"
	if cur != "" {
		path += "&cursor=" + cur
	}
	st, data, err := c.send(http.MethodGet, path, "", nil, req)
	o.status = st
	var pg service.DatasetPage
	if err != nil || st != http.StatusOK || json.Unmarshal(data, &pg) != nil {
		o.detail = fmt.Sprintf("dataset page answered %d: %v", st, err)
		return
	}
	o.ok = true
	c.pageMu.Lock()
	c.cursor = pg.NextCursor
	c.pageMu.Unlock()
}

// closedLoop runs ops on c.workers callers, each sending its next op
// only after the previous one completed.
func (c *client) closedLoop(ops []op) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				out[i] = outcome{op: &ops[i]}
				c.do(&out[i])
				out[i].due = out[i].sent
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends op i when it is due, at start + i/rate, whatever the
// service's state. With c.workers connections a request due while all
// are busy goes out late; its latency still counts from its due time,
// and the lateness is reported as generator lag.
func (c *client) openLoop(ops []op, rate float64) []outcome {
	out := make([]outcome, len(ops))
	start := c.now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start + time.Duration(float64(i)/rate*float64(time.Second))
				if d := due - c.now(); d > 0 {
					c.clk.Sleep(d)
				}
				out[i] = outcome{op: &ops[i], due: due}
				c.do(&out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// httpOK is a readiness probe: GET path must answer 200.
func httpOK(c *client, path string) error {
	st, _, err := c.send(http.MethodGet, path, "", nil, c.reqs.Add(1))
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, st)
	}
	return nil
}
