package webgen

import (
	"net/http"
	"strconv"
	"strings"

	"cookieguard/internal/netsim"
)

// Header values shared by every generated response. Routes send these
// slices as they are; each has capacity 1, so an append downstream
// copies instead of writing into the shared array.
var (
	ctHTML = []string{"text/html"}
	ctJS   = []string{"application/javascript"}
	ctCSS  = []string{"text/css"}
	ctPNG  = []string{"image/png"}
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

var (
	// notFound is the route of every path a site or service host does
	// not serve: http.NotFound's response.
	notFound = netsim.Route{Status: http.StatusNotFound, Body: "404 page not found\n"}
	// sinkRoutes is every beacon sink's table: 204 on any path.
	sinkRoutes = &netsim.Routes{Fallback: netsim.Route{Status: http.StatusNoContent}}
)

// registry accumulates each host's route table, so multiple scripts
// (e.g. the GTM base library plus per-site containers) can share one
// host.
type registry struct {
	hosts map[string]*netsim.Routes
	// sinks are beacon endpoints answering 204 on any path. Only the
	// services' registry has any, so the map is made on the first.
	sinks map[string]bool
}

func newRegistry() *registry {
	return &registry{hosts: map[string]*netsim.Routes{}}
}

// paths returns host's route map, making its table on first use.
func (r *registry) paths(host string) map[string]netsim.Route {
	rt := r.hosts[host]
	if rt == nil {
		rt = &netsim.Routes{Paths: map[string]netsim.Route{}, Fallback: notFound}
		r.hosts[host] = rt
	}
	return rt.Paths
}

func (r *registry) add(host, path, body, contentType string, setCookies ...string) {
	r.paths(host)[path] = netsim.Route{Status: http.StatusOK, ContentType: contentTypeHeader(contentType), SetCookie: setCookies, Body: body}
}

// addError serves status with http.Error's headers and the status text
// (netsim memoizes the body).
func (r *registry) addError(host, path string, status int) {
	r.paths(host)[path] = netsim.Route{Status: status}
}

func (r *registry) sink(host string) {
	if _, isScriptHost := r.hosts[host]; !isScriptHost {
		if r.sinks == nil {
			r.sinks = map[string]bool{}
		}
		r.sinks[host] = true
	}
}

// install registers each host's route table, and the sink table on each
// sink that is not also a script host. The fabric serves the tables in
// place; the responses are those of http.NotFound, http.Error and
// fmt.Fprint, byte for byte.
func (r *registry) install(in *netsim.Internet) {
	for host, rt := range r.hosts {
		in.Register(host, rt)
	}
	for host := range r.sinks {
		if _, conflict := r.hosts[host]; conflict {
			continue
		}
		in.Register(host, sinkRoutes)
	}
}

// renderer holds what many sites' bodies share, looked up or rendered
// once per web: the tag-manager service, the two variants of its
// container's vendor-tag block, and the host behind the cloaked alias.
// It is read-only once built, so sites render on many goroutines.
type renderer struct {
	tm *Service // googletagmanager; nil when the universe lacks it
	// exfilTail and exfilTailFP end an exfiltrating site's container;
	// exfilTailFP also reads fp_client_id (every third rank).
	exfilTail, exfilTailFP string
	cloakHost              string // longtail-trk-0000's host; "" when absent
}

func newRenderer(w *Web) *renderer {
	r := &renderer{tm: findService(w, "googletagmanager")}
	if r.tm != nil {
		r.exfilTail = containerExfilTail(r.tm, false)
		r.exfilTailFP = containerExfilTail(r.tm, true)
	}
	if trk := findService(w, "longtail-trk-0000"); trk != nil {
		r.cloakHost = trk.Host
	}
	return r
}

// registerServices installs every third-party script, the per-site
// tag-manager containers (containers[i] is site i's, rendered by
// Register), and all beacon sinks.
func registerServices(in *netsim.Internet, w *Web, tm *Service, containers []string) {
	reg := newRegistry()
	for _, svc := range w.Services {
		reg.add(svc.Host, svc.Path, svc.Source, "application/javascript")
	}
	for i, s := range w.Sites {
		if s.HasTagManager && tm != nil {
			reg.add(tm.Host, containerPath(s), containers[i], "application/javascript")
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
	var buf [48]byte
	return string(append(appendSiteLabel(append(buf[:0], "/container/"...), s.Rank), ".js"...))
}

// ContainerURL returns the per-site GTM container script URL.
func ContainerURL(w *Web, s *Site) string {
	return containerURL(findService(w, "googletagmanager"), s)
}

// containerURL is ContainerURL given the tag-manager service (nil when
// the universe lacks it).
func containerURL(tm *Service, s *Site) string {
	if tm == nil || !s.HasTagManager {
		return ""
	}
	return "https://" + tm.Host + containerPath(s)
}

// renderSite renders one site's pages, first-party scripts, static
// assets and CDN sibling into a registry of its own, for Register to
// install.
func (r *renderer) renderSite(s *Site) *registry {
	reg := newRegistry()

	if !s.Flags.Complete {
		// Incomplete sites fail to load: the crawler's completeness
		// criterion later drops them (paper: 14,917 of 20,000 retained).
		reg.addError(s.Host, "/", http.StatusInternalServerError)
		return reg
	}

	reg.add(s.Host, "/", r.landingHTML(s), "text/html",
		"srv_session="+hexID(s.Domain+"-session", 32)+"; HttpOnly; Path=/; Max-Age=7200",
		"srv_csrf="+hexID(s.Domain+"-csrf", 20)+"; Path=/; Max-Age=7200",
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
		reg.add(s.Host, "/login", loginHTML(s), "text/html")
	}
	if s.Flags.CDNSplit {
		reg.add(cdnDomain(s), "/chat.js", cdnChatScript(s), "application/javascript")
	}
	return reg
}

// CloakedScriptURL returns the first-party-looking URL of the cloaked
// tracker on a site ("" when the site is not cloaked).
func CloakedScriptURL(s *Site) string {
	if !s.Flags.Cloaked {
		return ""
	}
	return "https://metrics." + s.Domain + "/t.js"
}

// landingHTML renders a site's landing page. It collects the page's
// pieces first and joins them once, so the page is one allocation.
func (r *renderer) landingHTML(s *Site) string {
	const scriptSrc, scriptEnd = "<script src=", "></script>\n"
	var buf [64]string
	p := append(buf[:0], "<!DOCTYPE html>\n<html>\n<head>\n<title>", s.Domain, "</title>\n"+
		"<link rel=\"stylesheet\" href=\"/style.css\">\n"+
		"<script src=\"/assets/app.js\"></script>\n")
	if len(s.Consent) > 0 {
		// The CMP loader replaces the gated trackers' direct tags: it
		// injects them only once the consent cookie reads "granted".
		p = append(p, "<script src=\"/assets/cmp.js\"></script>\n")
	}
	for _, svc := range s.DirectServices {
		p = append(p, scriptSrc, svc.quoted, scriptEnd)
	}
	if u := containerURL(r.tm, s); u != "" && !s.ContainerGated {
		p = append(p, scriptSrc, strconv.Quote(u), scriptEnd)
	}
	if u := CloakedScriptURL(s); u != "" {
		p = append(p, scriptSrc, strconv.Quote(u), scriptEnd)
	}
	if s.Flags.CDNSplit {
		p = append(p, "<script src=\"https://", cdnDomain(s), "/chat.js\"></script>\n")
	}
	if s.Rank%3 == 0 { // inline snippet on a third of sites
		p = append(p, "<script>"+inlineSnippet+"</script>\n")
	}
	p = append(p, "</head>\n<body>\n"+
		"<div id=\"main\"><div id=\"status\">loading</div><div id=\"banner\">Welcome</div></div>\n")
	if len(s.Consent) > 0 {
		p = append(p, cmpBannerHTML+"\n")
	}
	if s.Flags.AdSlot {
		p = append(p, "<div id=\"ad-slot\"></div>\n")
	}
	p = append(p, "<a href=\"/products\">Products</a>\n<a href=\"/about\">About</a>\n")
	if s.Flags.SSO != "" {
		p = append(p, "<a href=\"/login\">Sign in</a>\n")
	}
	p = append(p, "<img src=\"/logo.png\">\n"+
		"<div id=\"content\"><p>Welcome to ", s.Domain, ".</p></div>\n"+
		"</body>\n</html>\n")
	return strings.Join(p, "")
}

// subpageHTML renders a subpage; contentID is an HTML id that needs no
// quoting.
func subpageHTML(s *Site, title, contentID string) string {
	return `<!DOCTYPE html>
<html>
<head><title>` + title + " — " + s.Domain + `</title>
<script src="/assets/app.js"></script>
</head>
<body>
<div id="status">loading</div>
<div id="` + contentID + `">` + title + ` content</div>
<a href="/">Home</a>
</body>
</html>
`
}

func loginHTML(s *Site) string {
	var buf [12]string
	p := append(buf[:0], "<!DOCTYPE html>\n<html>\n<head><title>Sign in — ", s.Domain, "</title>\n"+
		"<script src=\"/assets/app.js\"></script>\n")
	switch s.Flags.SSO {
	case "single":
		p = append(p, "<script src=\"https://", s.IdPA, "/login-single.js\"></script>\n")
	case "same-entity", "cross-entity":
		p = append(p, "<script src=\"https://", s.IdPA, "/login.js\"></script>\n",
			"<script src=\"https://", s.IdPB, "/session.js\"></script>\n")
	case "refresher":
		p = append(p, "<script src=\"https://", s.IdPA, "/login-single.js\"></script>\n",
			"<script src=\"https://session-keeper.example/keeper.js\"></script>\n")
	}
	p = append(p, "</head>\n<body>\n<div id=\"status\">loading</div>\n<div id=\"login-form\">Sign in with SSO</div>\n<a href=\"/\">Home</a>\n</body>\n</html>\n")
	return strings.Join(p, "")
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
