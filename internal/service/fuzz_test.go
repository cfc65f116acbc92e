package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzUpload throws arbitrary bodies, async selectors and idempotency
// keys at a single-chunk upload: the body becomes one /v2/traces line
// (see uploadLine) carrying the selector and key as its "async" and
// "key" fields. The contract under fuzz:
//
//   - the handler never panics (a panic would escape as a failed fuzz
//     input; the Recover layer is deliberately part of the chain under
//     test),
//   - a non-blank line is answered 200 with exactly one result line
//     whose status the wire protocol documents; a blank one is a 400
//     problem,
//   - the accounting conservation law (records_in == published +
//     rejected, nothing negative) survives any input mix, valid or
//     garbage.
//
// Run the smoke locally with:
//
//	go test -fuzz=FuzzUpload$ -fuzztime=30s -run='^$' ./internal/service
func FuzzUpload(f *testing.F) {
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]}`), "", "")
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]}`), "1", "key-1")
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]}`), "true", "key-1")
	f.Add([]byte(`{"user":"bob","records":[{"lat":95,"lon":4,"ts":1}]}`), "0", "")
	f.Add([]byte(`{"user":"bad/user","records":[{"lat":45,"lon":4,"ts":1}]}`), "", "k")
	f.Add([]byte(`{"user":"boom-x","records":[{"lat":45,"lon":4,"ts":1}]}`), "", "k")
	f.Add([]byte(`{"user":"reject-y","records":[{"lat":45,"lon":4,"ts":1}]}`), "false", "")
	f.Add([]byte(`{nope`), "yes", "")
	f.Add([]byte(`{"user":"","records":[]}`), "nope", string(make([]byte, 250)))
	f.Add([]byte(`{"user":"a b","records":[{"lat":-45.5,"lon":-4.25,"ts":-1}]}`), "TRUE", string(rune(0)))

	srv, err := New(&fakeProtector{}, WithWorkers(2), WithQueueDepth(16), WithRequestTimeout(-1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	handler := srv.Handler()

	known := map[int]bool{
		http.StatusOK:                    true,
		http.StatusAccepted:              true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true, // line over the size limit
		http.StatusUnprocessableEntity:   true, // key reused with another payload
		http.StatusServiceUnavailable:    true, // queue wait abandoned, storage refusal
	}

	f.Fuzz(func(t *testing.T, body []byte, asyncParam, key string) {
		line := uploadLine(body, asyncParam, key)
		req := httptest.NewRequest(http.MethodPost, "/v2/traces", bytes.NewReader(line))
		req.Header.Set("Content-Type", NDJSONContentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		switch {
		case len(bytes.TrimSpace(line)) == 0:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("blank upload answered %d, want 400: %q", rec.Code, rec.Body.String())
			}
		case rec.Code != http.StatusOK:
			t.Fatalf("undocumented request-level status %d for line=%q (response %q)",
				rec.Code, line, rec.Body.String())
		default:
			var res BatchResult
			dec := json.NewDecoder(rec.Body)
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("undecodable result for line=%q: %v", line, err)
			}
			if dec.More() {
				t.Fatalf("more than one result line for line=%q (response %q)", line, rec.Body.String())
			}
			if res.Index != 0 {
				t.Fatalf("single chunk answered with index %d", res.Index)
			}
			if res.Status == http.StatusInternalServerError {
				// The only legitimate 500 is the fake engine's deliberate
				// failure (boom-* users). A recovered panic also answers
				// 500 but with a different error text — accepting it
				// blindly would let the Recover layer hide real panics
				// from the fuzzer, so pin the text.
				if !strings.Contains(res.Error, "engine exploded") {
					t.Fatalf("unexpected 500 (recovered panic?) for body=%q async=%q key=%q: %+v",
						body, asyncParam, key, res)
				}
			} else if !known[res.Status] {
				t.Fatalf("undocumented status %d for body=%q async=%q key=%q: %+v",
					res.Status, body, asyncParam, key, res)
			}
		}

		st := srv.Stats()
		if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
			t.Fatalf("conservation broken: %+v", st)
		}
		if st.Uploads < 0 || st.Users < 0 || st.RecordsIn < 0 || st.RecordsPublished < 0 ||
			st.RecordsRejected < 0 || st.PublishedTraces < 0 {
			t.Fatalf("negative counter: %+v", st)
		}
	})
}

// uploadLine turns a fuzzed upload into one batch line. Newlines in the
// body become spaces so it stays a single chunk. When the body is a
// JSON object, a non-empty key is set as its "key" field and a
// non-empty selector as its "async" field: a boolean when
// strconv.ParseBool reads it, otherwise the raw string, which the
// server must reject for that chunk alone.
func uploadLine(body []byte, asyncParam, key string) []byte {
	line := bytes.ReplaceAll(body, []byte("\n"), []byte(" "))
	if asyncParam == "" && key == "" {
		return line
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(line, &obj) != nil || obj == nil {
		return line
	}
	set := func(field string, v any) {
		raw, err := json.Marshal(v)
		if err == nil {
			obj[field] = raw
		}
	}
	if key != "" {
		set("key", key)
	}
	if asyncParam != "" {
		if b, err := strconv.ParseBool(asyncParam); err == nil {
			set("async", b)
		} else {
			set("async", asyncParam)
		}
	}
	out, err := json.Marshal(obj)
	if err != nil {
		return line
	}
	return out
}

// FuzzUploadV2 throws arbitrary NDJSON streams at the batch endpoint.
// The contract under fuzz:
//
//   - the handler never panics, whatever the stream contains,
//   - a non-empty stream is answered 200 with exactly one result line
//     per non-blank input line, in input order; an empty stream is a
//     400 problem,
//   - every 200 result line obeys the per-chunk conservation law
//     (records_in == accepted + rejected for that chunk),
//   - the only 500 result line is the fake engine's deliberate failure
//     (a recovered panic also answers 500, so the text is pinned),
//   - the server-wide conservation law survives any input mix.
//
// Run the smoke locally with:
//
//	go test -fuzz=FuzzUploadV2 -fuzztime=30s -run='^$' ./internal/service
func FuzzUploadV2(f *testing.F) {
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "")
	f.Add([]byte(`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}],"key":"k1"}`+"\n"+
		`{"user":"alice","records":[{"lat":45,"lon":4,"ts":1}],"key":"k1"}`+"\n"), "alice")
	f.Add([]byte(`{"user":"bob","records":[{"lat":45,"lon":4,"ts":1},{"lat":45,"lon":4,"ts":2}],"async":true}`+"\n"), "")
	f.Add([]byte("{nope\n\n"+`{"user":"bad/user","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "")
	f.Add([]byte(`{"user":"boom-x","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "boom-x")
	f.Add([]byte(`{"user":"reject-y","records":[{"lat":45,"lon":4,"ts":1}]}`+"\n"), "other")
	f.Add([]byte(""), "")
	f.Add([]byte("\n\n\n"), "")
	f.Add([]byte(`{"user":"a","records":[]}`), "a")

	srv, err := New(&fakeProtector{}, WithWorkers(2), WithQueueDepth(16), WithRequestTimeout(-1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, stream []byte, hdrUser string) {
		// The fast line parser must agree with the generic decoder on
		// every line it accepts — same chunk, field for field.
		for _, ln := range bytes.Split(stream, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) == 0 {
				continue
			}
			fast, ok := parseBatchChunkFast(ln)
			if !ok {
				continue
			}
			var generic BatchChunk
			if err := json.Unmarshal(ln, &generic); err != nil {
				t.Fatalf("fast parser accepted %q but the generic decoder errors: %v", ln, err)
			}
			if fast.User != generic.User || fast.Key != generic.Key || fast.Async != generic.Async ||
				len(fast.Records) != len(generic.Records) {
				t.Fatalf("fast parse of %q = %+v, generic = %+v", ln, fast, generic)
			}
			for i := range fast.Records {
				if fast.Records[i] != generic.Records[i] {
					t.Fatalf("fast parse of %q: record %d = %+v, generic %+v", ln, i, fast.Records[i], generic.Records[i])
				}
			}
		}

		req := httptest.NewRequest(http.MethodPost, "/v2/traces", bytes.NewReader(stream))
		req.Header.Set("Content-Type", NDJSONContentType)
		if hdrUser != "" && utf8.ValidString(hdrUser) && !strings.ContainsAny(hdrUser, "\r\n\x00") {
			req.Header.Set(UserHeader, hdrUser)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		// Count the non-blank input lines the server should answer.
		wantLines := 0
		for _, ln := range bytes.Split(stream, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) > 0 {
				wantLines++
			}
		}

		switch rec.Code {
		case http.StatusBadRequest:
			if wantLines != 0 {
				t.Fatalf("non-empty stream (%d lines) answered request-level 400: %q", wantLines, rec.Body.String())
			}
		case http.StatusOK:
			dec := json.NewDecoder(rec.Body)
			got := 0
			for dec.More() {
				var res BatchResult
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("undecodable result line %d: %v", got, err)
				}
				if res.Index != got {
					t.Fatalf("result %d carries index %d: order broken", got, res.Index)
				}
				if res.Status == http.StatusInternalServerError && !strings.Contains(res.Error, "engine exploded") {
					t.Fatalf("unexpected 500 line (recovered panic?): %+v", res)
				}
				if res.Status == http.StatusOK {
					if res.Result == nil {
						t.Fatalf("200 line without result: %+v", res)
					}
					// Per-chunk conservation: the input line parses (the
					// server accepted it), so recount its records.
					var c BatchChunk
					if err := json.Unmarshal(nthLine(stream, got), &c); err != nil {
						t.Fatalf("server accepted an unparseable line %d: %v", got, err)
					}
					if res.Result.Accepted+res.Result.Rejected != len(c.Records) {
						t.Fatalf("chunk %d conservation: %d + %d != %d records",
							got, res.Result.Accepted, res.Result.Rejected, len(c.Records))
					}
				}
				got++
			}
			if got != wantLines {
				t.Fatalf("%d result lines for %d input lines", got, wantLines)
			}
		default:
			t.Fatalf("undocumented request-level status %d: %q", rec.Code, rec.Body.String())
		}

		st := srv.Stats()
		if st.RecordsIn != st.RecordsPublished+st.RecordsRejected {
			t.Fatalf("conservation broken: %+v", st)
		}
	})
}

// nthLine returns the n-th non-blank line of the stream.
func nthLine(stream []byte, n int) []byte {
	i := 0
	for _, ln := range bytes.Split(stream, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		if i == n {
			return ln
		}
		i++
	}
	return nil
}
