package webgen

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"cookieguard/internal/netsim"
)

// hostMux accumulates path→content per host so multiple scripts (e.g. the
// GTM base library plus per-site containers) can share one host.
type hostMux struct {
	paths map[string]pathContent
}

type pathContent struct {
	body        string
	contentType []string // shared header value; nil sets none
	status      int
	setCookies  []string
}

// Header values shared by every generated response. Handlers assign
// these slices into response headers as they are; each has capacity 1,
// so an append downstream copies instead of writing into the shared
// array.
var (
	ctHTML        = []string{"text/html"}
	ctJS          = []string{"application/javascript"}
	ctCSS         = []string{"text/css"}
	ctPNG         = []string{"image/png"}
	ctTextPlain   = []string{"text/plain; charset=utf-8"}
	nosniffHeader = []string{"nosniff"}
)

// contentTypeHeader returns the shared Content-Type value for ct.
func contentTypeHeader(ct string) []string {
	switch ct {
	case "":
		return nil
	case "text/html":
		return ctHTML
	case "application/javascript":
		return ctJS
	case "text/css":
		return ctCSS
	case "image/png":
		return ctPNG
	}
	return []string{ct}
}

// writeError answers as http.Error(w, text, code) does — same status,
// headers and body — with the shared header values.
func writeError(w http.ResponseWriter, code int, text string) {
	h := w.Header()
	delete(h, "Content-Length")
	h["Content-Type"] = ctTextPlain
	h["X-Content-Type-Options"] = nosniffHeader
	w.WriteHeader(code)
	io.WriteString(w, text)
	io.WriteString(w, "\n")
}

type registry struct {
	hosts map[string]*hostMux
	sinks map[string]bool // beacon endpoints answering 204 on any path
}

func newRegistry() *registry {
	return &registry{hosts: map[string]*hostMux{}, sinks: map[string]bool{}}
}

func (r *registry) add(host, path, body, contentType string, setCookies ...string) {
	m := r.hosts[host]
	if m == nil {
		m = &hostMux{paths: map[string]pathContent{}}
		r.hosts[host] = m
	}
	m.paths[path] = pathContent{body: body, contentType: contentTypeHeader(contentType), status: http.StatusOK, setCookies: setCookies}
}

func (r *registry) addError(host, path string, status int) {
	m := r.hosts[host]
	if m == nil {
		m = &hostMux{paths: map[string]pathContent{}}
		r.hosts[host] = m
	}
	m.paths[path] = pathContent{status: status}
}

func (r *registry) sink(host string) {
	if _, isScriptHost := r.hosts[host]; !isScriptHost {
		r.sinks[host] = true
	}
}

// install registers a handler per host. A handler writes nothing it
// allocates: header values are the shared slices above or the path's own
// Set-Cookie slice (capped at its length), and the body is written as a
// string. The responses are those of http.NotFound, http.Error and
// fmt.Fprint, byte for byte.
func (r *registry) install(in *netsim.Internet) {
	for host, mux := range r.hosts {
		m := mux
		in.RegisterFunc(host, func(w http.ResponseWriter, req *http.Request) {
			pc, ok := m.paths[req.URL.Path]
			if !ok {
				writeError(w, http.StatusNotFound, "404 page not found")
				return
			}
			h := w.Header()
			if n := len(pc.setCookies); n > 0 {
				h["Set-Cookie"] = pc.setCookies[:n:n]
			}
			if pc.status != http.StatusOK {
				writeError(w, pc.status, http.StatusText(pc.status))
				return
			}
			if pc.contentType != nil {
				h["Content-Type"] = pc.contentType
			}
			io.WriteString(w, pc.body)
		})
	}
	for host := range r.sinks {
		if _, conflict := r.hosts[host]; conflict {
			continue
		}
		in.RegisterFunc(host, func(w http.ResponseWriter, req *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		})
	}
}

// registerServices installs every third-party script and all beacon sinks.
func registerServices(in *netsim.Internet, w *Web) {
	reg := newRegistry()
	for _, svc := range w.Services {
		reg.add(svc.Host, svc.Path, svc.Source, "application/javascript")
	}
	// Per-site tag-manager containers.
	tm := findService(w, "googletagmanager")
	for _, s := range w.Sites {
		if s.HasTagManager && tm != nil {
			reg.add(tm.Host, containerPath(s), containerScript(s, tm), "application/javascript")
		}
	}
	// Every partner endpoint becomes a 204 sink.
	for _, svc := range w.Services {
		for _, p := range svc.Partners {
			reg.sink(p)
		}
	}
	reg.sink("relay.fp-analytics.example")
	reg.install(in)
}

func findService(w *Web, name string) *Service {
	for _, s := range w.Services {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func containerPath(s *Site) string {
	return fmt.Sprintf("/container/site%05d.js", s.Rank)
}

// ContainerURL returns the per-site GTM container script URL.
func ContainerURL(w *Web, s *Site) string {
	tm := findService(w, "googletagmanager")
	if tm == nil || !s.HasTagManager {
		return ""
	}
	return "https://" + tm.Host + containerPath(s)
}

// registerSite installs one site's pages, first-party script, static
// assets, CDN sibling, and CNAME-cloaked tracker alias.
func registerSite(in *netsim.Internet, w *Web, s *Site) {
	reg := newRegistry()

	if !s.Flags.Complete {
		// Incomplete sites fail to load: the crawler's completeness
		// criterion later drops them (paper: 14,917 of 20,000 retained).
		reg.addError(s.Host, "/", http.StatusInternalServerError)
		reg.install(in)
		return
	}

	reg.add(s.Host, "/", landingHTML(w, s), "text/html",
		fmt.Sprintf("srv_session=%s; HttpOnly; Path=/; Max-Age=7200", hexID(s.Domain+"-session", 32)),
		fmt.Sprintf("srv_csrf=%s; Path=/; Max-Age=7200", hexID(s.Domain+"-csrf", 20)),
		"srv_pref=1; Path=/; Max-Age=31536000",
	)
	if len(s.Consent) > 0 {
		reg.add(s.Host, "/assets/cmp.js", cmpLoaderScript(s), "application/javascript")
	}
	reg.add(s.Host, "/products", subpageHTML(s, "Products", "catalog"), "text/html")
	reg.add(s.Host, "/about", subpageHTML(s, "About", "about-text"), "text/html")
	reg.add(s.Host, "/assets/app.js", fpScript(s), "application/javascript")
	reg.add(s.Host, "/style.css", "body { font: sans-serif }", "text/css")
	reg.add(s.Host, "/logo.png", "PNGDATA", "image/png")

	if s.Flags.SSO != "" {
		reg.add(s.Host, "/login", loginHTML(w, s), "text/html")
	}
	if s.Flags.CDNSplit {
		reg.add(cdnDomain(s), "/chat.js", cdnChatScript(s), "application/javascript")
	}
	reg.install(in)

	if s.Flags.Cloaked {
		// CNAME-cloak the first long-tail tracker behind a first-party
		// subdomain: scripts loaded from metrics.<site> are actually
		// served by the tracker (§8, "CNAME cloaking").
		if trk := findService(w, "longtail-trk-0000"); trk != nil {
			in.AddCNAME("metrics."+s.Domain, trk.Host)
		}
	}
}

// CloakedScriptURL returns the first-party-looking URL of the cloaked
// tracker on a site ("" when the site is not cloaked).
func CloakedScriptURL(s *Site) string {
	if !s.Flags.Cloaked {
		return ""
	}
	return "https://metrics." + s.Domain + "/t.js"
}

func landingHTML(w *Web, s *Site) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head>\n<title>%s</title>\n", s.Domain)
	b.WriteString("<link rel=\"stylesheet\" href=\"/style.css\">\n")
	b.WriteString("<script src=\"/assets/app.js\"></script>\n")
	if len(s.Consent) > 0 {
		// The CMP loader replaces the gated trackers' direct tags: it
		// injects them only once the consent cookie reads "granted".
		b.WriteString("<script src=\"/assets/cmp.js\"></script>\n")
	}
	for _, svc := range s.DirectServices {
		fmt.Fprintf(&b, "<script src=%q></script>\n", svc.URL())
	}
	if u := ContainerURL(w, s); u != "" && !s.ContainerGated {
		fmt.Fprintf(&b, "<script src=%q></script>\n", u)
	}
	if u := CloakedScriptURL(s); u != "" {
		fmt.Fprintf(&b, "<script src=%q></script>\n", u)
	}
	if s.Flags.CDNSplit {
		fmt.Fprintf(&b, "<script src=\"https://%s/chat.js\"></script>\n", cdnDomain(s))
	}
	if s.Rank%3 == 0 { // inline snippet on a third of sites
		fmt.Fprintf(&b, "<script>%s</script>\n", inlineSnippet)
	}
	b.WriteString("</head>\n<body>\n")
	b.WriteString("<div id=\"main\"><div id=\"status\">loading</div><div id=\"banner\">Welcome</div></div>\n")
	if len(s.Consent) > 0 {
		b.WriteString(cmpBannerHTML + "\n")
	}
	if s.Flags.AdSlot {
		b.WriteString("<div id=\"ad-slot\"></div>\n")
	}
	b.WriteString("<a href=\"/products\">Products</a>\n<a href=\"/about\">About</a>\n")
	if s.Flags.SSO != "" {
		b.WriteString("<a href=\"/login\">Sign in</a>\n")
	}
	b.WriteString("<img src=\"/logo.png\">\n")
	fmt.Fprintf(&b, "<div id=\"content\"><p>Welcome to %s.</p></div>\n", s.Domain)
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

func subpageHTML(s *Site, title, contentID string) string {
	return fmt.Sprintf(`<!DOCTYPE html>
<html>
<head><title>%s — %s</title>
<script src="/assets/app.js"></script>
</head>
<body>
<div id="status">loading</div>
<div id=%q>%s content</div>
<a href="/">Home</a>
</body>
</html>
`, title, s.Domain, contentID, title)
}

func loginHTML(w *Web, s *Site) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head><title>Sign in — %s</title>\n", s.Domain)
	b.WriteString("<script src=\"/assets/app.js\"></script>\n")
	switch s.Flags.SSO {
	case "single":
		fmt.Fprintf(&b, "<script src=\"https://%s/login-single.js\"></script>\n", s.IdPA)
	case "same-entity", "cross-entity":
		fmt.Fprintf(&b, "<script src=\"https://%s/login.js\"></script>\n", s.IdPA)
		fmt.Fprintf(&b, "<script src=\"https://%s/session.js\"></script>\n", s.IdPB)
	case "refresher":
		fmt.Fprintf(&b, "<script src=\"https://%s/login-single.js\"></script>\n", s.IdPA)
		b.WriteString("<script src=\"https://session-keeper.example/keeper.js\"></script>\n")
	}
	b.WriteString("</head>\n<body>\n<div id=\"status\">loading</div>\n<div id=\"login-form\">Sign in with SSO</div>\n<a href=\"/\">Home</a>\n</body>\n</html>\n")
	return b.String()
}

// registerIdPs installs identity-provider script hosts.
func registerIdPs(in *netsim.Internet, w *Web) {
	reg := newRegistry()
	for _, pair := range w.IdPs {
		reg.add(pair.LoginHost, "/login.js", idpLoginScript(pair, false), "application/javascript")
		reg.add(pair.LoginHost, "/login-single.js", idpLoginScript(pair, true), "application/javascript")
		reg.add(pair.SessHost, "/session.js", idpSessionScript(pair), "application/javascript")
	}
	reg.add("session-keeper.example", "/keeper.js", refresherScript, "application/javascript")
	reg.install(in)
}

// hexID derives a deterministic hex string from a label.
func hexID(label string, n int) string {
	const digits = "0123456789abcdef"
	h := uint64(14695981039346656037)
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		for j := 0; j < len(label); j++ {
			h ^= uint64(label[j]) + uint64(i)
			h *= 1099511628211
		}
		out[i] = digits[h%16]
	}
	return string(out)
}
