package webgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/http"
	"runtime"
	"sort"
	"testing"

	"cookieguard/internal/netsim"
)

// fabricGolden pins every response of the 300-site fabric, without and
// with CMP, as the SHA-256 of fabricDigest's transcript.
var fabricGolden = map[bool]string{
	false: "5c64b0cf299afa1197e770ee842ade0992fc7206bf0e3ee8e66757c696d12624",
	true:  "2b35ed84cb97dfde38c8563ce3a65b19cebc28110665348f717f53d5a08d603f",
}

// fabricURLs lists every URL the web's plan names: each site's pages and
// first-party scripts, each CDN sibling's chat.js, each tag-manager
// container, each service script, each IdP script and each cloaked
// alias.
func fabricURLs(w *Web) []string {
	var urls []string
	for _, s := range w.Sites {
		for _, p := range []string{"/", "/products", "/about", "/login", "/assets/app.js", "/assets/cmp.js"} {
			urls = append(urls, "https://"+s.Host+p)
		}
		if s.Flags.CDNSplit {
			urls = append(urls, "https://"+cdnDomain(s)+"/chat.js")
		}
		if u := ContainerURL(w, s); u != "" {
			urls = append(urls, u)
		}
		if u := CloakedScriptURL(s); u != "" {
			urls = append(urls, u)
		}
	}
	for _, svc := range w.Services {
		urls = append(urls, svc.URL())
	}
	for _, pair := range w.IdPs {
		urls = append(urls,
			"https://"+pair.LoginHost+"/login.js",
			"https://"+pair.LoginHost+"/login-single.js",
			"https://"+pair.SessHost+"/session.js")
	}
	return append(urls, "https://session-keeper.example/keeper.js")
}

// fabricDigest builds the web and its fabric and hashes the status, the
// sorted headers and the body of every response to fabricURLs.
func fabricDigest(t *testing.T, cmp bool) string {
	t.Helper()
	cfg := DefaultConfig(300)
	cfg.CMP = cmp
	w := Build(cfg)
	in := w.BuildInternet()
	h := sha256.New()
	for _, u := range fabricURLs(w) {
		writeResponse(t, h, in, u)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeResponse(t *testing.T, h hash.Hash, in *netsim.Internet, rawURL string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := in.Fetch(req, netsim.Stamp{})
	if err != nil {
		// An incomplete site registers no alias for its cloaked tracker.
		fmt.Fprintf(h, "%s error %v\n", rawURL, err)
		return
	}
	body, err := netsim.ReadBody(resp)
	if err != nil {
		t.Fatalf("%s: %v", rawURL, err)
	}
	fmt.Fprintf(h, "%s %d\n", rawURL, resp.StatusCode)
	keys := make([]string, 0, len(resp.Header))
	for k := range resp.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s: %q\n", k, resp.Header[k])
	}
	fmt.Fprintf(h, "%d\n%s\n", len(body), body)
}

// TestFabricGolden: the generated fabric serves the same bytes on one
// core as on several, and the same bytes as the pinned digest.
func TestFabricGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, cmp := range []bool{false, true} {
			if got := fabricDigest(t, cmp); got != fabricGolden[cmp] {
				t.Errorf("GOMAXPROCS=%d CMP=%v: fabric digest %s, want %s", procs, cmp, got, fabricGolden[cmp])
			}
		}
	}
}
