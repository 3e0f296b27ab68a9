package dpserver_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// FuzzWireCodec proves the query wire's codec against encoding/json, on
// three legs run over every input:
//
//   - (a) the input as a /v1/knn and as a /v1/range body through
//     Server.ServeHTTP gets the status and the bytes referenceServe gives it:
//     encoding/json's decode, the checks in their order, the engine's answer
//     encoded by encoding/json;
//   - (b) the input read as an answer (answerOf) and written by the server's
//     one answer writer is json.NewEncoder's bytes when every value in it is
//     finite, and a 400 when one is not;
//   - (c) QueryResponse.UnmarshalJSON reads (b)'s bytes, and the raw input,
//     to what encoding/json reads, bit for bit.
func FuzzWireCodec(f *testing.F) {
	for _, tc := range requestErrorCases {
		// Not the batch-cap rows: at 57 KiB each, the fuzzer would spend its
		// budget minimising their mutations (TestServerRequestErrors has them).
		if len(tc.body) < 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	for _, body := range []string{
		`{"query": [0.1, 0.2, 0.3], "k": 3}`,
		"\n\t{\"query\":[0.1,0.2,0.3],\r\"k\":3}  ",
		`{ "k" : 3 , "query" : [ 0.1 , 0.2 , 0.3 ] }`,
		`{"query": [0.1, 0.2, 0.3], "k": 3, "unknown": [1, {"a": null}]}`,
		`{"query": [0.1, 0.2, 0.3], "K": 3}`,
		`{"query": [0.1, 0.2, 0.3], "\u006b": 3}`,
		`{"query": null, "k": 3}`,
		`{"query": [0.1, null, 0.3], "k": 3}`,
		`{"queries": null, "k": 3}`,
		`{"query": [0.1, 0.2, 0.3], "k": 3, "k": 4}`,
		`{"query": [0.1, 0.2, 0.3], "k": 3} trailing`,
		`{"query": [0.1, 0.2, 0.3], "k": 3}{"k": 4}`,
		`{"query": "word", "k": 3}`,
		`{"query": "w\u00f6rd", "k": 3}`,
		`{"query": [0, -0, 5e-324], "k": 3, "approx": true, "nprobe": 2}`,
		`{"query": [9.999999999999999e-7, 1e-6, 1.0000000000000002e-6], "r": 1e21}`,
		`{"query": [999999999999999900000, 1e21, 1.0000000000000002e21], "r": 1.7976931348623157e308}`,
		`{"queries": [[1.7976931348623157e308, -0, 0], [1E-7, 2e+1, 0.5]], "k": 2}`,
		`{"results":[{"id":3,"distance":0.5}],"batches":[[],[{"distance":1e-7,"id":-1}]],"approx":{"nprobe":1,"probed_buckets":2,"total_buckets":3,"candidates":4,"candidate_fraction":0.25,"exact":false}}`,
	} {
		f.Add([]byte(body))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), math.MaxFloat64, math.Inf(1), math.NaN()} {
		f.Add(answerSeed(x))
	}
	const n = 300
	srv, _, truth, _ := testServer(f, 26, n, 3, dpserver.Config{CacheSize: 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		// (a)
		for _, path := range []string{"/v1/knn", "/v1/range"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(in)))
			code, want := referenceServe(truth, n, path, in)
			if code < 0 { // an answer encoding/json cannot encode: a 400 naming it
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error":"the answer`) {
					t.Fatalf("POST %s %q: got %d %s, want the 400 of an answer JSON cannot carry", path, in, rec.Code, rec.Body.Bytes())
				}
				continue
			}
			if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("POST %s %q:\n got  %d %s\n want %d %s", path, in, rec.Code, rec.Body.Bytes(), code, want)
			}
		}
		// (b)
		resp := answerOf(in)
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(resp)
		rec := httptest.NewRecorder()
		srv.Reply(rec, resp)
		switch {
		case encErr != nil && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error"`)):
			t.Fatalf("answer %+v that encoding/json refuses (%v): %d %s, want a 400", resp, encErr, rec.Code, rec.Body.Bytes())
		case encErr == nil && (rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes())):
			t.Fatalf("answer %+v:\n got  %d %s\n want %s", resp, rec.Code, rec.Body.Bytes(), want.Bytes())
		}
		// (c)
		for _, data := range [][]byte{want.Bytes(), in} {
			var got dpserver.QueryResponse
			var ref plainResponse
			gotErr := got.UnmarshalJSON(data)
			refErr := json.NewDecoder(bytes.NewReader(data)).Decode(&ref)
			if (gotErr == nil) != (refErr == nil) || !sameResponse(got, dpserver.QueryResponse(ref)) {
				t.Fatalf("UnmarshalJSON(%q) = %+v, %v; encoding/json reads %+v, %v", data, got, gotErr, ref, refErr)
			}
		}
	})
}

// plainResponse is QueryResponse without its UnmarshalJSON: what
// encoding/json reads an answer to by reflection.
type plainResponse dpserver.QueryResponse

// referenceServe answers a query body as the server did before the codec:
// encoding/json decodes it, and each point as DecodePoint did; the checks
// run in the server's order with its texts; the truth engine's answer is
// encoded by encoding/json. An answer encoding/json cannot encode is code
// -1.
func referenceServe(truth *distperm.Engine, n int, path string, body []byte) (code int, resp []byte) {
	fail := func(code int, msg string) (int, []byte) {
		var b bytes.Buffer
		json.NewEncoder(&b).Encode(dpserver.ErrorResponse{Error: strings.TrimPrefix(msg, "distperm: ")})
		return code, b.Bytes()
	}
	var req dpserver.KNNRequest
	var q distperm.Query
	var err error
	if path == "/v1/range" {
		var rr dpserver.RangeRequest
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&rr)
		req.Query, req.Queries, q.Radius = rr.Query, rr.Queries, rr.R
	} else {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		q = distperm.Query{K: req.K, Approx: req.Approx, NProbe: req.NProbe}
	}
	raws := req.Queries
	if req.Query != nil {
		raws = []json.RawMessage{req.Query}
	}
	switch {
	case err != nil:
		return fail(http.StatusBadRequest, "bad request body: "+err.Error())
	case path == "/v1/knn" && (q.K < 1 || q.K > n):
		return fail(http.StatusBadRequest, fmt.Sprintf("k=%d out of range 1..%d", q.K, n))
	case path == "/v1/range" && (q.Radius < 0 || math.IsNaN(q.Radius)):
		return fail(http.StatusBadRequest, fmt.Sprintf("bad radius %g", q.Radius))
	case req.Query != nil && req.Queries != nil:
		return fail(http.StatusBadRequest, `"query" and "queries" are mutually exclusive`)
	case req.Query == nil && req.Queries == nil:
		return fail(http.StatusBadRequest, `one of "query" or "queries" is required`)
	case len(req.Queries) > 4096:
		return fail(http.StatusBadRequest, fmt.Sprintf("%d queries in one request, limit 4096", len(req.Queries)))
	case len(raws) > 0 && q.K > (1<<20)/len(raws):
		return fail(http.StatusBadRequest, fmt.Sprintf("%d queries × k=%d results in one request, limit %d", len(raws), q.K, 1<<20))
	}
	qs := make([]distperm.Point, len(raws))
	for i, raw := range raws {
		p, err := referencePoint(raw)
		if v, ok := p.(distperm.Vector); err == nil && !ok {
			err = errors.New("this server serves vector points; got a string")
		} else if err == nil && len(v) != 3 {
			err = fmt.Errorf("query has %d dimensions, database has 3", len(v))
		}
		if err != nil && req.Query == nil {
			err = fmt.Errorf("queries[%d]: %w", i, err)
		}
		if err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		qs[i] = p
	}
	outs, sts, err := truth.Search(qs, q)
	if err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, distperm.ErrOutOfRange) || errors.Is(err, distperm.ErrNoApprox) {
			code = http.StatusBadRequest
		}
		return fail(code, err.Error())
	}
	var answer dpserver.QueryResponse
	if q.Approx {
		a := &dpserver.ApproxWire{NProbe: q.NProbe, Exact: true}
		for _, st := range sts {
			a.ProbedBuckets += st.ProbedBuckets
			a.Candidates += st.Candidates
			a.TotalBuckets = st.TotalBuckets
			a.Exact = a.Exact && st.Exact
		}
		if len(sts) > 0 {
			a.CandidateFraction = float64(a.Candidates) / float64(len(sts)*n)
		}
		answer.Approx = a
	}
	if req.Query != nil {
		answer.Results = outs[0]
	} else {
		for i := range outs {
			if outs[i] == nil {
				outs[i] = []distperm.Result{}
			}
		}
		answer.Batches = outs
	}
	var b bytes.Buffer
	if json.NewEncoder(&b).Encode(answer) != nil {
		return -1, nil
	}
	return http.StatusOK, b.Bytes()
}

// referencePoint is DecodePoint as it was before the codec: encoding/json
// for both shapes.
func referencePoint(raw json.RawMessage) (distperm.Point, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, errors.New("dpserver: empty point")
	}
	switch trimmed[0] {
	case '[':
		var v []float64
		if err := json.Unmarshal(trimmed, &v); err != nil {
			return nil, fmt.Errorf("dpserver: bad vector point: %w", err)
		}
		return distperm.Vector(v), nil
	case '"':
		var s string
		if err := json.Unmarshal(trimmed, &s); err != nil {
			return nil, fmt.Errorf("dpserver: bad string point: %w", err)
		}
		return distperm.String(s), nil
	}
	return nil, fmt.Errorf("dpserver: point must be a JSON array (vector) or string, got %q", trimmed)
}

// answerOf reads an answer out of fuzz bytes: a shape byte (bit 0 results,
// bit 1 batches, bit 2 approx); per result list a length byte (7 is nil),
// then eight bytes of ID and eight of float64 bits a result; a batch count
// byte; eight bytes per number of the approx object and one for exact.
// Missing bytes read as zero.
func answerOf(data []byte) dpserver.QueryResponse {
	next := func(size int) uint64 {
		var b [8]byte
		data = data[copy(b[:size], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	list := func() []dpserver.Result {
		size := next(1) % 8
		if size == 7 {
			return nil
		}
		rs := make([]dpserver.Result, size)
		for i := range rs {
			rs[i] = dpserver.Result{ID: int(next(8)), Distance: math.Float64frombits(next(8))}
		}
		return rs
	}
	var resp dpserver.QueryResponse
	shape := next(1)
	if shape&1 != 0 {
		resp.Results = list()
	}
	if shape&2 != 0 {
		resp.Batches = make([][]dpserver.Result, next(1)%5)
		for i := range resp.Batches {
			resp.Batches[i] = list()
		}
	}
	if shape&4 != 0 {
		resp.Approx = &dpserver.ApproxWire{NProbe: int(next(8)), ProbedBuckets: int(next(8)), TotalBuckets: int(next(8)),
			Candidates: int(next(8)), CandidateFraction: math.Float64frombits(next(8)), Exact: next(1)&1 == 1}
	}
	return resp
}

// answerSeed is the answerOf bytes of an answer holding x and -x as
// distances, alone and in a batch, and x as the candidate fraction.
func answerSeed(x float64) []byte {
	list := []byte{2}
	for i, d := range []float64{x, -x} {
		list = binary.LittleEndian.AppendUint64(list, uint64(i-1))
		list = binary.LittleEndian.AppendUint64(list, math.Float64bits(d))
	}
	b := append([]byte{7}, list...)
	b = append(append(b, 2, 0), list...) // a batch of an empty list and the list
	for _, v := range []uint64{1, 2, 3, 4, math.Float64bits(x)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return append(b, 1)
}

// sameResponse compares two answers bit for bit: nil against empty lists,
// and every float by its bits.
func sameResponse(a, b dpserver.QueryResponse) bool {
	same := func(x, y []dpserver.Result) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].ID != y[i].ID || math.Float64bits(x[i].Distance) != math.Float64bits(y[i].Distance) {
				return false
			}
		}
		return true
	}
	if !same(a.Results, b.Results) || (a.Batches == nil) != (b.Batches == nil) || len(a.Batches) != len(b.Batches) ||
		(a.Approx == nil) != (b.Approx == nil) {
		return false
	}
	for i := range a.Batches {
		if !same(a.Batches[i], b.Batches[i]) {
			return false
		}
	}
	if a.Approx == nil {
		return true
	}
	x, y := *a.Approx, *b.Approx
	if math.Float64bits(x.CandidateFraction) != math.Float64bits(y.CandidateFraction) {
		return false
	}
	x.CandidateFraction, y.CandidateFraction = 0, 0
	return x == y
}

// TestWireRequestBytes: the Go client's query bodies are the bytes
// encoding/json gives the KNNRequest or RangeRequest of the same points, on
// every query method, and it refuses what encoding/json refuses; so are
// MarshalJSON's on points a caller made.
func TestWireRequestBytes(t *testing.T) {
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		io.WriteString(w, "{}")
	}))
	defer ts.Close()
	c, ctx := client.New(ts.URL), context.Background()
	pts := []distperm.Point{distperm.Vector{0.1, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, -math.MaxFloat64},
		distperm.Vector{}, distperm.Vector{1e-6, 999999999999999900000}, distperm.String("a word"), distperm.String("a <word> & more")}
	enc := func(ps []distperm.Point) (raws []json.RawMessage) {
		for _, p := range ps {
			raw, err := dpserver.EncodePoint(p)
			if err != nil {
				t.Fatal(err)
			}
			raws = append(raws, raw)
		}
		return raws
	}
	type plainKNN dpserver.KNNRequest
	type plainRange dpserver.RangeRequest
	check := func(what string, err error, req any) {
		t.Helper()
		switch r := req.(type) { // encoding/json by reflection, not through MarshalJSON
		case dpserver.KNNRequest:
			req = plainKNN(r)
		case dpserver.RangeRequest:
			req = plainRange(r)
		}
		want, _ := json.Marshal(req)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s sent %s (%v), json.Marshal gives %s", what, got, err, want)
		}
	}
	for _, q := range pts {
		_, err := c.KNN(ctx, q, 3)
		check("KNN", err, dpserver.KNNRequest{Query: enc([]distperm.Point{q})[0], K: 3})
		_, _, err = c.KNNApprox(ctx, q, 1, 4)
		check("KNNApprox", err, dpserver.KNNRequest{Query: enc([]distperm.Point{q})[0], K: 1, Approx: true, NProbe: 4})
		_, err = c.Range(ctx, q, 1e-9)
		check("Range", err, dpserver.RangeRequest{Query: enc([]distperm.Point{q})[0], R: 1e-9})
	}
	for _, qs := range [][]distperm.Point{nil, pts[:1], pts} {
		_, err := c.KNNBatch(ctx, qs, 2)
		check("KNNBatch", err, dpserver.KNNRequest{Queries: enc(qs), K: 2})
		_, _, err = c.KNNApproxBatch(ctx, qs, 2, 0)
		check("KNNApproxBatch", err, dpserver.KNNRequest{Queries: enc(qs), K: 2, Approx: true})
		_, err = c.RangeBatch(ctx, qs, 0.25)
		check("RangeBatch", err, dpserver.RangeRequest{Queries: enc(qs), R: 0.25})
	}
	got = nil
	for _, r := range []float64{math.Inf(1), math.NaN()} {
		if _, err := c.Range(ctx, pts[0], r); err == nil || got != nil {
			t.Errorf("Range with radius %v: err %v, sent %s", r, err, got)
		}
	}
	if _, err := c.KNNBatch(ctx, []distperm.Point{pts[0], distperm.Vector{math.NaN()}}, 1); err == nil || got != nil {
		t.Errorf("KNNBatch with a NaN coordinate: err %v, sent %s", err, got)
	}
	for _, v := range []distperm.Vector{nil, {math.NaN()}, {1, math.Inf(-1)}} {
		raw, err := dpserver.EncodePoint(v)
		want, wantErr := json.Marshal([]float64(v))
		if (err == nil) != (wantErr == nil) || !bytes.Equal(raw, want) {
			t.Errorf("EncodePoint(%v) = %s, %v; json.Marshal: %s, %v", v, raw, err, want, wantErr)
		}
	}
	// Points a caller made: what json.Marshal would change goes through it.
	raws := append(enc(pts), json.RawMessage(` [1, 2]`), json.RawMessage(`[1.50,2E3]`), json.RawMessage(`"<a&b>"`),
		json.RawMessage(`"café"`), json.RawMessage(`{}`), json.RawMessage(`[1,]`), json.RawMessage(`"x" `), json.RawMessage{}, nil)
	for _, q := range raws {
		for _, qs := range [][]json.RawMessage{nil, {}, raws[:2], {q}} {
			for _, r := range []dpserver.KNNRequest{{Query: q, Queries: qs, K: 3}, {Query: q, Queries: qs, K: -1, Approx: true, NProbe: 4}} {
				got, gotErr := r.MarshalJSON()
				want, wantErr := json.Marshal(plainKNN(r))
				if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
					t.Errorf("%+v: %s, %v; json.Marshal: %s, %v", r, got, gotErr, want, wantErr)
				}
			}
			for _, rad := range []float64{0.25, math.Inf(1), math.NaN()} {
				r := dpserver.RangeRequest{Query: q, Queries: qs, R: rad}
				got, gotErr := r.MarshalJSON()
				want, wantErr := json.Marshal(plainRange(r))
				if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
					t.Errorf("%+v: %s, %v; json.Marshal: %s, %v", r, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
