package dpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"distperm/pkg/distperm"
)

// The query wire's codec: a /v1/knn or /v1/range body is read once and
// parsed in one pass, and its answer appended, without encoding/json — by
// the server, and by pkg/dpserver/client through KNNRequest.MarshalJSON,
// RangeRequest.MarshalJSON and QueryResponse.UnmarshalJSON. The grammar is the part of JSON the wire
// uses: whitespace anywhere; objects whose keys are the type's own
// lower-case names, unescaped, each at most once, in any order; numbers of
// the JSON grammar, converted by strconv as encoding/json converts them (an
// int takes an integer literal in range); true and false; points as arrays
// of numbers or strings of printable ASCII without escapes; nothing after
// the value but whitespace. What lies outside it — "K", "\u006b", an unknown
// key, null, a repeated key, an escaped or non-ASCII string, trailing bytes,
// a number strconv refuses — is no error: the codec declines, and
// encoding/json decodes the same bytes, so every body gets encoding/json's
// answer.

// lexer reads the grammar out of b from i on. coords is the slab vector
// points are cut from, sized on first use by the commas left in b: at least
// the coordinates they can hold.
type lexer struct {
	b      []byte
	i      int
	coords []float64
}

func (l *lexer) ws() {
	for l.i < len(l.b) && (l.b[l.i] == ' ' || l.b[l.i] == '\t' || l.b[l.i] == '\n' || l.b[l.i] == '\r') {
		l.i++
	}
}

// word skips whitespace and consumes w if it comes next.
func (l *lexer) word(w string) bool {
	l.ws()
	if end := l.i + len(w); end <= len(l.b) && string(l.b[l.i:end]) == w {
		l.i = end
		return true
	}
	return false
}

// take consumes the next byte, whitespace or not, if it is one of set.
func (l *lexer) take(set string) bool {
	if l.i < len(l.b) && strings.IndexByte(set, l.b[l.i]) >= 0 {
		l.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (l *lexer) end() bool {
	l.ws()
	return l.i == len(l.b)
}

// list reads elements, each by elem, separated by commas, up to close.
func (l *lexer) list(close string, elem func() bool) bool {
	if l.word(close) {
		return true
	}
	for elem() {
		if l.word(close) {
			return true
		}
		if !l.word(",") {
			return false
		}
	}
	return false
}

// object reads an object whose keys are among names, each at most once;
// member reads the value of the key it is handed.
func (l *lexer) object(names []string, member func(key string) bool) bool {
	var seen uint
	return l.word("{") && l.list("}", func() bool {
		key, ok := l.str()
		if !ok || !l.word(":") {
			return false
		}
		for i, name := range names {
			if string(key) == name && seen&(1<<i) == 0 {
				seen |= 1 << i
				return member(name)
			}
		}
		return false
	})
}

// str reads a string of printable ASCII without escapes and returns what is
// between its quotes.
func (l *lexer) str() ([]byte, bool) {
	if !l.word(`"`) {
		return nil, false
	}
	start := l.i
	for l.i < len(l.b) && l.b[l.i] != '"' && l.b[l.i] != '\\' && ' ' <= l.b[l.i] && l.b[l.i] <= '~' {
		l.i++
	}
	return l.b[start:l.i], l.take(`"`)
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns
// its bytes.
func (l *lexer) number() ([]byte, bool) {
	l.ws()
	start := l.i
	l.take("-")
	ok := l.take("0") || l.digits()
	if l.take(".") {
		ok = l.digits() && ok
	}
	if l.take("eE") {
		l.take("+-")
		ok = l.digits() && ok
	}
	return l.b[start:l.i], ok
}

func (l *lexer) digits() bool {
	start := l.i
	for l.i < len(l.b) && '0' <= l.b[l.i] && l.b[l.i] <= '9' {
		l.i++
	}
	return l.i > start
}

// float and int read a number as encoding/json reads one into a float64 or
// an int; what strconv refuses (out of range, or no integer) declines.
func (l *lexer) float() (float64, bool) {
	s, ok := l.number()
	f, err := strconv.ParseFloat(string(s), 64)
	return f, ok && err == nil
}

func (l *lexer) int() (int, bool) {
	s, ok := l.number()
	n, err := strconv.Atoi(string(s))
	return n, ok && err == nil
}

// vector reads an array of numbers into the slab and returns its run.
func (l *lexer) vector() (distperm.Vector, bool) {
	if !l.word("[") {
		return nil, false
	}
	if l.coords == nil {
		l.coords = make([]float64, 0, bytes.Count(l.b[l.i:], []byte{','})+1)
	}
	start := len(l.coords)
	ok := l.list("]", func() bool {
		x, ok := l.float()
		l.coords = append(l.coords, x)
		return ok
	})
	return l.coords[start:len(l.coords):len(l.coords)], ok
}

func (l *lexer) point() (distperm.Point, bool) {
	if l.ws(); l.i < len(l.b) && l.b[l.i] == '"' {
		s, ok := l.str()
		return distperm.String(s), ok
	}
	return l.vector()
}

// The keys of the wire's objects, as their struct tags name them.
var (
	knnKeys      = []string{"query", "queries", "k", "approx", "nprobe"}
	rangeKeys    = []string{"query", "queries", "r"}
	responseKeys = []string{"results", "batches", "approx"}
	resultKeys   = []string{"id", "distance"}
	approxKeys   = []string{"nprobe", "probed_buckets", "total_buckets", "candidates", "candidate_fraction", "exact"}
)

// queryBody is a /v1/knn or /v1/range body as answer validates it: its
// Query, which of "query" and "queries" it sent, and its points — parsed by
// the codec (pts), or still raw (raws) when encoding/json decoded the body.
type queryBody struct {
	q             distperm.Query
	single, batch bool
	pts           []distperm.Point
	raws          []json.RawMessage
}

// parseQuery is the codec's pass over a /v1/range body when isRange, else a
// /v1/knn one; false declines it.
func parseQuery(body []byte, isRange bool) (qb queryBody, ok bool) {
	l := lexer{b: body}
	keys := knnKeys
	if isRange {
		keys = rangeKeys
	}
	ok = l.object(keys, func(key string) (ok bool) {
		switch key {
		case "query":
			var p distperm.Point
			p, ok = l.point()
			qb.single, qb.pts = true, append(qb.pts, p)
		case "queries":
			qb.batch = true
			ok = l.word("[") && l.list("]", func() bool {
				p, ok := l.point()
				qb.pts = append(qb.pts, p)
				return ok
			})
		case "k":
			qb.q.K, ok = l.int()
		case "approx":
			qb.q.Approx = l.word("true")
			ok = qb.q.Approx || l.word("false")
		case "nprobe":
			qb.q.NProbe, ok = l.int()
		case "r":
			qb.q.Radius, ok = l.float()
		}
		return ok
	}) && l.end()
	return qb, ok
}

// readQuery reads a /v1/range body when isRange, else a /v1/knn one, whole
// into a pooled buffer — 413 past maxBodyBytes — and decodes it with the
// codec or, when it declines (counted in dpserver_wire_fallbacks_total),
// with encoding/json into RangeRequest or KNNRequest: 400 if that fails
// too. It reports whether the handler may go on.
func (s *Server) readQuery(w http.ResponseWriter, r *http.Request, isRange bool) (queryBody, bool) {
	buf := wireBuf()
	defer putWireBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		s.badBody(w, err)
		return queryBody{}, false
	}
	if qb, ok := parseQuery(buf.Bytes(), isRange); ok {
		return qb, true
	}
	s.metrics.wireFallbacks.Inc()
	var req KNNRequest
	var rr RangeRequest
	dst := any(&req)
	if isRange {
		dst = &rr
	}
	if err := json.NewDecoder(buf).Decode(dst); err != nil {
		s.badBody(w, err)
		return queryBody{}, false
	}
	if isRange {
		req = KNNRequest{Query: rr.Query, Queries: rr.Queries}
	}
	qb := queryBody{q: distperm.Query{K: req.K, Radius: rr.R, Approx: req.Approx, NProbe: req.NProbe},
		single: req.Query != nil, batch: req.Queries != nil, raws: req.Queries}
	if qb.single && !qb.batch {
		qb.raws = []json.RawMessage{req.Query}
	}
	return qb, true
}

// wireBufs pools the buffers query bodies are read into and answers
// appended to; one grown past 64 KiB is left to the collector, so that one
// large batch cannot pin 8 MiB.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func wireBuf() *bytes.Buffer {
	b := wireBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putWireBuf(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		wireBufs.Put(b)
	}
}

// reply writes resp as the 200 answer, appended by the codec into a pooled
// buffer and written at once — or, when it holds a value JSON has no form
// for, a 400 naming it: encoding/json found that out only after the headers
// had gone, and left an empty 200.
func (s *Server) reply(w http.ResponseWriter, resp *QueryResponse) {
	buf := wireBuf()
	defer putWireBuf(buf)
	b, err := appendQueryResponse(buf.AvailableBuffer(), resp)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	buf.Write(b) // b is buf's own storage unless it outgrew it; then buf keeps the larger
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// appendQueryResponse appends resp as json.NewEncoder(w).Encode(resp)
// writes it, newline included, and fails where Encode fails: on a distance
// or candidate fraction of ±Inf or NaN.
func appendQueryResponse(b []byte, resp *QueryResponse) ([]byte, error) {
	b = append(b, '{')
	open := len(b)
	member := func(key string) {
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, key...)
	}
	var err error
	if len(resp.Results) > 0 {
		member(`"results":`)
		if b, err = appendResults(b, resp.Results); err != nil {
			return nil, err
		}
	}
	for i, rs := range resp.Batches {
		if i == 0 {
			member(`"batches":[`)
		} else {
			b = append(b, ',')
		}
		if b, err = appendResults(b, rs); err != nil {
			return nil, err
		}
	}
	if len(resp.Batches) > 0 {
		b = append(b, ']')
	}
	if a := resp.Approx; a != nil {
		if !finite(a.CandidateFraction) {
			return nil, fmt.Errorf("the answer's candidate_fraction %v has no JSON form", a.CandidateFraction)
		}
		member(`"approx":{"nprobe":`)
		b = strconv.AppendInt(b, int64(a.NProbe), 10)
		b = strconv.AppendInt(append(b, `,"probed_buckets":`...), int64(a.ProbedBuckets), 10)
		b = strconv.AppendInt(append(b, `,"total_buckets":`...), int64(a.TotalBuckets), 10)
		b = strconv.AppendInt(append(b, `,"candidates":`...), int64(a.Candidates), 10)
		b = appendFloat(append(b, `,"candidate_fraction":`...), a.CandidateFraction)
		b = append(strconv.AppendBool(append(b, `,"exact":`...), a.Exact), '}')
	}
	return append(b, "}\n"...), nil
}

// appendResults appends a result list as encoding/json does: null when nil.
func appendResults(b []byte, rs []Result) ([]byte, error) {
	if rs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, r := range rs {
		if !finite(r.Distance) {
			return nil, fmt.Errorf("the answer holds distance %v, which JSON cannot carry: the query lies too far from the data for its distances to fit a float64", r.Distance)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"id":`...), int64(r.ID), 10)
		b = append(appendFloat(append(b, `,"distance":`...), r.Distance), '}')
	}
	return append(b, ']'), nil
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest form that reads back, exponent form below 1e-6 and from 1e21 on,
// e-07 cut to e-7.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendVector appends v as json.Marshal([]float64(v)) does, or returns
// false for what it leaves to encoding/json: a nil v (null) and a coordinate
// of ±Inf or NaN (an error).
func appendVector(b []byte, v distperm.Vector) ([]byte, bool) {
	b = append(b, '[')
	for i, x := range v {
		if !finite(x) {
			return nil, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']'), v != nil
}

// MarshalJSON appends r as json.Marshal does, without reflection; a point
// json.Marshal would not send as it is sends r through encoding/json.
func (r KNNRequest) MarshalJSON() ([]byte, error) {
	b, ok := appendPoints(r.Query, r.Queries)
	if !ok {
		type plain KNNRequest
		return json.Marshal(plain(r))
	}
	b = strconv.AppendInt(append(b, `"k":`...), int64(r.K), 10)
	if r.Approx {
		b = append(b, `,"approx":true`...)
	}
	if r.NProbe != 0 {
		b = strconv.AppendInt(append(b, `,"nprobe":`...), int64(r.NProbe), 10)
	}
	return append(b, '}'), nil
}

// MarshalJSON is KNNRequest.MarshalJSON for /v1/range; a radius of ±Inf or
// NaN goes through encoding/json too, for its error.
func (r RangeRequest) MarshalJSON() ([]byte, error) {
	b, ok := appendPoints(r.Query, r.Queries)
	if !ok || !finite(r.R) {
		type plain RangeRequest
		return json.Marshal(plain(r))
	}
	return append(appendFloat(append(b, `"r":`...), r.R), '}'), nil
}

// appendPoints opens a request object with its "query" and "queries"
// members, each left out when empty; false unless json.Marshal sends every
// point as it is: a compact array of numbers, or a string of the grammar
// with nothing encoding/json escapes (<, > and &).
func appendPoints(query json.RawMessage, queries []json.RawMessage) ([]byte, bool) {
	asIs := func(p json.RawMessage) bool {
		l := lexer{b: p}
		if len(p) > 0 && p[0] == '"' {
			s, ok := l.str()
			return ok && l.i == len(p) && !bytes.ContainsAny(s, "<>&")
		}
		return len(p) > 0 && !bytes.ContainsAny(p, " \t\n\r") && l.word("[") &&
			l.list("]", func() bool { _, ok := l.number(); return ok }) && l.i == len(p)
	}
	n := len(query) + 64
	for _, p := range queries {
		n += len(p) + 1
	}
	b := append(make([]byte, 0, n), '{')
	if len(query) > 0 {
		if !asIs(query) {
			return nil, false
		}
		b = append(append(append(b, `"query":`...), query...), ',')
	}
	sep := `"queries":[`
	for _, p := range queries {
		if !asIs(p) {
			return nil, false
		}
		b, sep = append(append(b, sep...), p...), ","
	}
	if len(queries) > 0 {
		b = append(b, "],"...)
	}
	return b, true
}

// UnmarshalJSON reads an answer with the codec or, outside its grammar,
// with encoding/json — through a json.Decoder, which reads the first value
// and leaves what follows, as the client always has. Like encoding/json, it
// keeps the fields an answer does not name.
func (r *QueryResponse) UnmarshalJSON(data []byte) error {
	v, l := *r, lexer{b: data}
	if l.object(responseKeys, func(key string) (ok bool) {
		switch key {
		case "results":
			v.Results, ok = l.results()
		case "batches":
			v.Batches = [][]Result{}
			ok = l.word("[") && l.list("]", func() bool {
				rs, ok := l.results()
				v.Batches = append(v.Batches, rs)
				return ok
			})
		case "approx":
			v.Approx = new(ApproxWire)
			ok = l.approx(v.Approx)
		}
		return ok
	}) && l.end() {
		*r = v
		return nil
	}
	type plain QueryResponse
	return json.NewDecoder(bytes.NewReader(data)).Decode((*plain)(r))
}

// results reads a list of {"id": …, "distance": …} objects, sized by the
// braces before the list's first ']'.
func (l *lexer) results() ([]Result, bool) {
	if !l.word("[") {
		return nil, false
	}
	end := l.i + max(0, bytes.IndexByte(l.b[l.i:], ']'))
	rs := make([]Result, 0, bytes.Count(l.b[l.i:end], []byte{'{'}))
	ok := l.list("]", func() bool {
		var r Result
		ok := l.object(resultKeys, func(key string) (ok bool) {
			if key == "id" {
				r.ID, ok = l.int()
			} else {
				r.Distance, ok = l.float()
			}
			return ok
		})
		rs = append(rs, r)
		return ok
	})
	return rs, ok
}

// approx reads the probe accounting into a.
func (l *lexer) approx(a *ApproxWire) bool {
	return l.object(approxKeys, func(key string) (ok bool) {
		switch key {
		case "nprobe":
			a.NProbe, ok = l.int()
		case "probed_buckets":
			a.ProbedBuckets, ok = l.int()
		case "total_buckets":
			a.TotalBuckets, ok = l.int()
		case "candidates":
			a.Candidates, ok = l.int()
		case "candidate_fraction":
			a.CandidateFraction, ok = l.float()
		case "exact":
			a.Exact = l.word("true")
			ok = a.Exact || l.word("false")
		}
		return ok
	})
}
