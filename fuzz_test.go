package cookieguard

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// FuzzServerQuery drives the /v1 blocking-query parameters through
// Server.ServeHTTP. The store is closed, so no query parks. Every
// response must be 200, 304 (a conditional request for the current
// index) or 400, and a 400 must come exactly when ?index is given and
// does not parse as a uint64, or ?wait is given and does not parse as a
// duration, with or without ?index.
func FuzzServerQuery(f *testing.F) {
	p := New(WithSites(1))
	p.ResultStore().Close()
	srv := p.NewServer()
	paths := []string{"/v1/results", "/v1/summary", "/v1/sites", "/v1/tables/actions", "/v1/progress"}

	for _, seed := range []struct {
		index, wait string
		cond        bool
	}{
		{"", "", false}, {"0", "", false}, {"0", "30s", true}, {"7", "1ms", false},
		{"18446744073709551615", "2m", false}, {"18446744073709551616", "", false},
		{"-1", "", false}, {"0x10", "", false}, {" 1", "", false}, {"1", "30", false},
		{"1", "-5s", false}, {"1", "9999999h", false}, {"", "bad", false}, {"1", "1h2m3.5s", true},
	} {
		f.Add(seed.index, seed.wait, seed.cond, uint8(0))
	}
	f.Fuzz(func(t *testing.T, index, wait string, cond bool, path uint8) {
		q := url.Values{}
		if index != "" {
			q.Set("index", index)
		}
		if wait != "" {
			q.Set("wait", wait)
		}
		target := paths[int(path)%len(paths)] + "?" + q.Encode()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if cond {
			req.Header.Set("If-None-Match", `"cg-0"`)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)

		bad := false
		if index != "" {
			_, err := strconv.ParseUint(index, 10, 64)
			bad = err != nil
		}
		if wait != "" {
			_, err := time.ParseDuration(wait)
			bad = bad || err != nil
		}
		want := http.StatusOK
		switch {
		case bad:
			want = http.StatusBadRequest
		case cond:
			want = http.StatusNotModified
		}
		if w.Code != want {
			t.Fatalf("GET %s (conditional %v): status %d, want %d", target, cond, w.Code, want)
		}
	})
}
