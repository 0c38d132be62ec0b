package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryParams sends raw query strings to the GET query endpoints of
// queryFixture. Whatever the parameters, a request must answer 200, 400
// or 404 (an unknown ?dataset=), and a 200 must carry a non-empty, valid
// JSON body. The seed corpus lives in testdata/fuzz/FuzzQueryParams; run
// the fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzQueryParams$' -fuzztime 10s ./internal/serve
func FuzzQueryParams(f *testing.F) {
	srv, _ := queryFixture()
	h := srv.Handler()
	routes := []string{"count", "breakdown", "limit"}
	f.Fuzz(func(t *testing.T, route uint8, rawQuery string) {
		path := "/v1/query/" + routes[int(route)%len(routes)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			body := rec.Body.Bytes()
			if len(body) == 0 || !json.Valid(body) {
				t.Fatalf("GET %s?%s: 200 with invalid JSON body %q", path, rawQuery, body)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET %s?%s: status %d, want 200, 400 or 404: %s", path, rawQuery, rec.Code, rec.Body)
		}
	})
}
