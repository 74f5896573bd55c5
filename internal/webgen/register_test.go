package webgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cookieguard/internal/netsim"
)

// netHTTPHandler answers from a host's route table with http.NotFound,
// http.Error and fmt.Fprint: the responses the generated routes must
// reproduce byte for byte.
func netHTTPHandler(rt *netsim.Routes) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		pc, ok := rt.Paths[req.URL.Path]
		if !ok {
			http.NotFound(w, req)
			return
		}
		for _, sc := range pc.SetCookie {
			w.Header().Add("Set-Cookie", sc)
		}
		if pc.Status != http.StatusOK {
			http.Error(w, http.StatusText(pc.Status), pc.Status)
			return
		}
		if pc.ContentType != nil {
			w.Header().Set("Content-Type", pc.ContentType[0])
		}
		fmt.Fprint(w, pc.Body)
	}
}

// TestHandlersMatchNetHTTP: for content (with and without cookies and a
// content type), error and missing paths, a generated route's status,
// headers and body equal those of http.NotFound, http.Error and
// fmt.Fprint — both through ServeHTTP and as served by the fabric.
func TestHandlersMatchNetHTTP(t *testing.T) {
	reg := newRegistry()
	reg.add("www.gen.example", "/", "<p>hi</p>", "text/html", "a=1; Path=/", "b=2; HttpOnly")
	reg.add("www.gen.example", "/app.js", "let x = 1;", "application/javascript")
	reg.add("www.gen.example", "/raw", "raw", "")
	reg.add("www.gen.example", "/odd", "odd", "text/x-odd")
	reg.add("www.gen.example", "/empty", "", "text/css")
	reg.addError("www.gen.example", "/broken", http.StatusInternalServerError)
	reg.addError("www.gen.example", "/gone", http.StatusGone)

	in := netsim.New()
	reg.install(in)
	in.Register("www.ref.example", netHTTPHandler(reg.hosts["www.gen.example"]))
	in.Freeze()

	for _, path := range []string{"/", "/app.js", "/raw", "/odd", "/empty", "/broken", "/gone", "/missing", "/app.js/"} {
		gen := httptest.NewRecorder()
		in.ServeHTTP(gen, httptest.NewRequest(http.MethodGet, "https://www.gen.example"+path, nil))
		ref := httptest.NewRecorder()
		in.ServeHTTP(ref, httptest.NewRequest(http.MethodGet, "https://www.ref.example"+path, nil))
		if gen.Code != ref.Code || !reflect.DeepEqual(gen.Header(), ref.Header()) || gen.Body.String() != ref.Body.String() {
			t.Errorf("%s: handler gives %d %v %q, net/http gives %d %v %q", path,
				gen.Code, gen.Header(), gen.Body.String(), ref.Code, ref.Header(), ref.Body.String())
		}

		genResp, genBody := fabricGet(t, in, "https://www.gen.example"+path)
		refResp, refBody := fabricGet(t, in, "https://www.ref.example"+path)
		if genResp.StatusCode != refResp.StatusCode || !reflect.DeepEqual(genResp.Header, refResp.Header) || genBody != refBody {
			t.Errorf("%s over the fabric: handler gives %d %v %q, net/http gives %d %v %q", path,
				genResp.StatusCode, genResp.Header, genBody, refResp.StatusCode, refResp.Header, refBody)
		}
	}
}

func fabricGet(t *testing.T, in *netsim.Internet, rawURL string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := in.Fetch(req, netsim.Stamp{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := netsim.ReadBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	// The two hosts' latencies differ; everything else must not.
	resp.Header.Del(netsim.LatencyHeader)
	return resp, body
}
