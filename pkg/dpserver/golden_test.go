package dpserver_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distperm/pkg/dpserver"
)

// goldenWire is the scripted request list TestWireGolden replays: every
// query form, the bodies encoding/json decodes in place of the codec
// (another case of a key, an escape, an unknown key, null, a repeated key,
// trailing bytes, strings the codec leaves alone), every 400 a query body
// can earn, and the 413.
var goldenWire = []struct{ path, body string }{
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5}`}, // the same again: a cache hit
	{"/v1/knn", `{"k":5,"query":[0.1,0.2,0.3]}`},
	{"/v1/knn", "\t{ \"query\" :\n[ 0.1 ,0.2, 0.3 ] ,\r\"k\": 5 }\n\n"},
	{"/v1/knn", `{"queries": [[0.1,0.2,0.3],[0.9,0.8,0.7],[0.5,0.5,0.5]], "k": 3}`},
	{"/v1/knn", `{"queries": [[0.25,0.5,0.75]], "k": 300}`},
	{"/v1/knn", `{"queries": [], "k": 1}`},
	{"/v1/knn", `{"queries": [], "k": 1, "approx": true}`},
	{"/v1/knn", `{"query": [0.3,0.6,0.9], "k": 4, "approx": true, "nprobe": 1}`},
	{"/v1/knn", `{"query": [0.3,0.6,0.9], "k": 4, "approx": true, "nprobe": 100000}`},
	{"/v1/knn", `{"query": [0.3,0.6,0.9], "k": 4, "approx": true}`},
	{"/v1/knn", `{"queries": [[0.3,0.6,0.9],[0.1,0.1,0.1]], "k": 2, "approx": true, "nprobe": 2}`},
	{"/v1/knn", `{"query": [0.3,0.6,0.9], "k": 4, "approx": false, "nprobe": 3}`},
	{"/v1/knn", `{"query": [-0, 1e-7, 5e-324], "k": 2}`},
	{"/v1/knn", `{"query": [1E0, 2.5e+0, 0.000001], "k": 2}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 2.0}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 1e0}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 99999999999999999999}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 1e400], "k": 1}`},
	{"/v1/knn", `{"Query": [0.1, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "K": 5}`},
	{"/v1/knn", `{"\u0071uery": [0.1, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "\u006b": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5, "extra": {"a": [1, "x"]}}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5, "r": "not a radius"}`},
	{"/v1/knn", `{"query": [0.1, null, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": null}`},
	{"/v1/knn", `{"query": null, "k": 5}`},
	{"/v1/knn", `{"queries": null, "k": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5, "k": 2}`},
	{"/v1/knn", `{"query": [9, 9, 9], "query": [0.1, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5} trailing garbage`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5}{"query": 7}`},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5, "approx": "yes"}`},
	{"/v1/knn", `{"query": "caf\u00e9", "k": 1}`},
	{"/v1/knn", `{"query": "café", "k": 1}`},
	{"/v1/knn", `{"query": "word", "k": 1}`},
	{"/v1/knn", `{"queries": [[0.1,0.2,0.3], "wörd"], "k": 1}`},
	{"/v1/knn", ``},
	{"/v1/knn", `   `},
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 5`},
	{"/v1/knn", `{"query": [0.1, 0.2,, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [01, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [.5, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `{"query": [+1, 0.2, 0.3], "k": 5}`},
	{"/v1/knn", `[1, 2, 3]`},
	// Every 400 a query body can earn, in the order the server checks.
	{"/v1/knn", `not json`},
	{"/v1/knn", `{"k": 1}`},
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "queries": [[0.1,0.2,0.3]], "k": 1}`},
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": 0}`},
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": -3}`},
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": 301}`},
	{"/v1/knn", `{"query": [0.1,0.2], "k": 1}`},
	{"/v1/knn", `{"query": [], "k": 1}`},
	{"/v1/knn", `{"query": 7, "k": 1}`},
	{"/v1/knn", `{"query": {}, "k": 1}`},
	{"/v1/knn", `{"queries": [[0.1,0.2,0.3], [0.4]], "k": 1}`},
	{"/v1/knn", `{"queries": [[0.1,0.2,0.3], true], "k": 1}`},
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4096) + `[0.1,0.2,0.3]], "k": 1}`},
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4096) + `[0.1,0.2,0.3]], "k": 1, "approx": true}`},
	{"/v1/knn", `{"k": 1, "approx": true}`},
	{"/v1/knn", `{"query": [0.1,0.2], "k": 1, "approx": true}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": 0.2}`},
	{"/v1/range", `{"queries": [[0.5,0.5,0.5],[0,0,0]], "r": 0.15}`},
	{"/v1/range", `{"query": [5,5,5], "r": 0.1}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": 0}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": 1e-400}`},
	{"/v1/range", `{"queries": [], "r": 0.1}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "R": 0.2}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": 0.2, "k": 3}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": -0.5}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": 1e999}`},
	{"/v1/range", `{"query": [0.5,0.5,0.5], "r": "0.2"}`},
	{"/v1/range", `{"queries": [[0.1,0.2,0.3], [0.4]], "r": 0.2}`},
	{"/v1/range", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4096) + `[0.1,0.2,0.3]], "r": 0.1}`},
	// Over 8 MiB: 413.
	{"/v1/knn", `{"k": 1, "query": [` + strings.Repeat("0.25, ", 2<<20) + `0.25]}`},
}

// TestWireGolden replays goldenWire against a seeded 300-point store and
// compares every status, Content-Type and response byte with
// testdata/wire_golden.txt, recorded from the encoding/json decoder and
// encoder the codec replaces. GEN_WIRE_GOLDEN=1 rewrites the file; only do
// that from a commit whose answers are the reference.
func TestWireGolden(t *testing.T) {
	srv, _, _, _ := testServer(t, 61, 300, 3, dpserver.Config{CacheSize: 16})
	var got bytes.Buffer
	for _, tc := range goldenWire {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		fmt.Fprintf(&got, "%d %s %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
		if !bytes.HasSuffix(rec.Body.Bytes(), []byte("\n")) {
			got.WriteByte('\n') // a body without its newline shows as a line too short
		}
	}
	path := filepath.Join("testdata", "wire_golden.txt")
	if os.Getenv("GEN_WIRE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := bufio.NewScanner(&got), bufio.NewScanner(bytes.NewReader(want))
	gs.Buffer(nil, 1<<20)
	ws.Buffer(nil, 1<<20)
	for i := range goldenWire {
		gs.Scan()
		ws.Scan()
		if gs.Text() != ws.Text() {
			body := goldenWire[i].body
			if len(body) > 120 {
				body = body[:60] + "…" + body[len(body)-40:]
			}
			t.Errorf("POST %s %q:\n got  %s\n want %s", goldenWire[i].path, body, gs.Text(), ws.Text())
		}
	}
	if gs.Scan() || ws.Scan() {
		t.Errorf("golden file has another length than the request list")
	}
}
