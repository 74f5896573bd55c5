// Package webgen generates the synthetic web the reproduction crawls: a
// deterministic population of sites whose scripts exhibit the behaviours
// the paper measures — ghost-written first-party cookies, cross-domain
// exfiltration/overwriting/deletion, tag-manager injection chains,
// CookieStore usage, consent managers, RTB exchanges, SSO flows, and
// CDN-split functionality — at rates calibrated to the paper's findings.
//
// Everything is derived from Config.Seed: building the same config twice
// yields byte-identical sites, scripts, and cookie values, which is what
// makes the experiment tables cmd/experiments prints reproducible.
package webgen

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"cookieguard/internal/entity"
	"cookieguard/internal/netsim"
	"cookieguard/internal/stats"
)

// Config holds the generation parameters. Defaults (DefaultConfig) encode
// the prevalences the paper reports so that the measurement pipeline,
// run over the generated web, lands near the published numbers.
type Config struct {
	Seed     uint64
	NumSites int

	// Completeness: fraction of sites that yield complete crawl data
	// (paper: 14,917 / 20,000 ≈ 0.746).
	PComplete float64

	// Third-party inclusion (§5.1).
	PThirdParty      float64 // sites with ≥1 third-party script (0.933)
	MeanTPBase       float64 // Poisson mean of the light component
	PHeavySite       float64 // share of ad-heavy sites
	MeanTPHeavy      float64 // extra scripts on ad-heavy sites
	PDirectInclusion float64 // share of third-party scripts included directly (§5.6; rest injected)

	// Cookie API usage (§5.2).
	PFPScriptCookies float64 // sites whose first-party script sets cookies
	PCookieStoreSite float64 // sites using the CookieStore API (0.028)

	// Cross-domain behaviour flags (§5.3).
	PExfilSite     float64 // sites with ≥1 cross-domain exfiltrating script (0.557)
	PBulkExfil     float64 // of exfil sites, share whose exfiltrator sends every identifier
	POverwriteSite float64 // sites with ≥1 cross-domain overwriting script (0.315)
	PDeleteSite    float64 // sites with ≥1 cross-domain deleting script (0.063)
	PCSExfilSite   float64 // sites with cookieStore cross-domain exfiltration (0.007)
	PDOMModSite    float64 // sites with cross-domain DOM modification (§8, 0.094)

	// Site-owner (first-party) cross-domain actions: these survive
	// CookieGuard's owner-full-access policy and produce the residual
	// bars of Figure 5.
	PFPExfil     float64
	PFPOverwrite float64
	PFPDelete    float64

	// Breakage-relevant features (§7.2).
	PSSOSingle      float64 // single-provider SSO (works under guard)
	PSSOSameEntity  float64 // two-domain same-entity SSO (fixed by whitelist)
	PSSOCrossEntity float64 // two-domain cross-entity SSO (3% residual)
	PSSORefresher   float64 // refresh-dependent SSO (minor breakage)
	PAdSlotSite     float64 // ad rendering depends on cross-domain cookie (minor)
	PCDNSplitSite   float64 // own functionality served from a sibling domain (major, whitelist-fixed)

	// CNAME cloaking (§8 limitation; exercised as an ablation).
	PCloakedTracker float64

	// Long-tail universe sizes.
	NLongTailTrackers int
	NLongTailWidgets  int
	NIdPPairs         int

	// CMP, when true, grows every third-party-bearing site a consent
	// manager: its directly included trackers (and tag-manager
	// container) move out of the HTML into a seeded per-site consent
	// manifest (Site.Consent — named trackers with category, script URL,
	// and async flag), loaded by a first-party CMP script that gates
	// tracker injection on the consent cookie and renders a banner with
	// accept-all / reject-all / dismiss actions. False (the default)
	// generates no CMP artifacts at all, byte-identical to before the
	// knob existed.
	CMP bool
}

// DefaultConfig returns the paper-calibrated configuration for n sites.
func DefaultConfig(n int) Config {
	return Config{
		Seed:     20250301,
		NumSites: n,

		PComplete: 0.746,

		PThirdParty:      0.933,
		MeanTPBase:       6,
		PHeavySite:       0.30,
		MeanTPHeavy:      40,
		PDirectInclusion: 0.17, // indirect:direct ≈ 2.5:1 measured (the
		// GTM base library and per-site container are always direct)

		PFPScriptCookies: 0.80,
		PCookieStoreSite: 0.028,

		PExfilSite:     0.557,
		PBulkExfil:     0.10,
		POverwriteSite: 0.315,
		PDeleteSite:    0.063,
		PCSExfilSite:   0.007,
		PDOMModSite:    0.094,

		PFPExfil:     0.094,
		PFPOverwrite: 0.056,
		PFPDelete:    0.009,

		PSSOSingle:      0.20,
		PSSOSameEntity:  0.08,
		PSSOCrossEntity: 0.03,
		PSSORefresher:   0.01,
		PAdSlotSite:     0.03,
		PCDNSplitSite:   0.03,

		PCloakedTracker: 0.01,

		NLongTailTrackers: 220,
		NLongTailWidgets:  80,
		NIdPPairs:         6,
	}
}

// SiteFlags records the behaviours planned for one site; the analysis
// pipeline later measures these same properties independently from logs.
type SiteFlags struct {
	Complete    bool
	HasTP       bool
	FPCookies   bool
	CookieStore bool
	Exfil       bool
	BulkExfil   bool
	Overwrite   bool
	Delete      bool
	CSExfil     bool
	DOMMod      bool
	FPExfil     bool
	FPOverwrite bool
	FPDelete    bool
	AdSlot      bool
	CDNSplit    bool
	Cloaked     bool

	// SSO is one of "", "single", "same-entity", "cross-entity",
	// "refresher".
	SSO string
}

// Site is one generated website.
type Site struct {
	Rank   int
	Domain string // eTLD+1, e.g. site00042.com
	Host   string // www host
	URL    string // landing page

	Flags SiteFlags

	// DirectServices are included via <script src> in the HTML; the
	// tag manager (when present) injects InjectedServices.
	DirectServices   []*Service
	InjectedServices []*Service
	HasTagManager    bool

	// Consent is the site's CMP manifest (Config.CMP only): trackers
	// gated behind the consent banner, in inclusion order. ContainerGated
	// marks that the tag-manager container rides in the manifest instead
	// of a direct <script> tag.
	Consent        []ConsentTracker
	ContainerGated bool

	// IdP names the identity-provider pair for SSO sites.
	IdPA, IdPB string
}

// Web is the fully generated universe, ready to register on an Internet.
type Web struct {
	Config   Config
	Sites    []*Site
	Services []*Service
	Entities *entity.Map

	// IdPs lists identity-provider script hosts (for breakage checks).
	IdPs []IdPPair
}

// IdPPair is a two-domain SSO provider.
type IdPPair struct {
	Name       string
	LoginHost  string // sets the sso token
	SessHost   string // reads the token, confirms the session
	SameEntity bool
}

// SiteTLDs is the TLD mixture for generated sites.
var SiteTLDs = []string{"com", "com", "com", "org", "net", "io", "co", "de", "co.uk", "fr"}

// Build generates the universe. Each site's plan is a pure function of
// the config, its rank and read-only shared state (the services, the
// service picker and the IdPs): its random stream is forked from the
// site stream in rank order first, because a fork advances the parent,
// and then every site is planned on GOMAXPROCS goroutines. The web is
// the same whatever GOMAXPROCS is.
func Build(cfg Config) *Web {
	if cfg.NumSites <= 0 {
		cfg.NumSites = 100
	}
	rng := stats.NewRand(cfg.Seed)

	w := &Web{Config: cfg}
	w.Services = buildServices(cfg, rng.Fork(1))
	w.IdPs = buildIdPs(cfg)

	siteRng := rng.Fork(2)
	rngs := make([]stats.Rand, cfg.NumSites)
	for i := range rngs {
		rngs[i] = *siteRng.Fork(uint64(i + 1))
	}
	w.Sites = make([]*Site, cfg.NumSites)
	picker := newServicePicker(w.Services, cfg)
	forEach(cfg.NumSites, func(i int) {
		w.Sites[i] = buildSite(cfg, i+1, &rngs[i], picker, w)
	})
	w.Entities = buildEntities(w)
	return w
}

// forEach calls f(i) for every i in [0, n) on GOMAXPROCS goroutines and
// returns once every call has. Calls for different i run concurrently,
// so f may write only what belongs to i.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// buildSite plans one site: flags first, then a script mix realizing them.
func buildSite(cfg Config, rank int, rng *stats.Rand, picker *servicePicker, w *Web) *Site {
	tld := SiteTLDs[rng.Intn(len(SiteTLDs))]
	var buf [32]byte
	domain := string(append(append(appendSiteLabel(buf[:0], rank), '.'), tld...))
	s := &Site{
		Rank:   rank,
		Domain: domain,
		Host:   "www." + domain,
		URL:    "https://www." + domain + "/",
	}
	f := &s.Flags
	f.Complete = rng.Bool(cfg.PComplete)
	f.HasTP = rng.Bool(cfg.PThirdParty)
	f.FPCookies = rng.Bool(cfg.PFPScriptCookies)
	f.CookieStore = rng.Bool(cfg.PCookieStoreSite)
	if f.HasTP {
		f.Exfil = rng.Bool(cfg.PExfilSite)
		f.BulkExfil = f.Exfil && rng.Bool(cfg.PBulkExfil)
		f.Overwrite = rng.Bool(cfg.POverwriteSite)
		f.Delete = rng.Bool(cfg.PDeleteSite)
		f.CSExfil = f.CookieStore && rng.Bool(cfg.PCSExfilSite/cfg.PCookieStoreSite)
		f.DOMMod = rng.Bool(cfg.PDOMModSite)
	}
	f.FPExfil = rng.Bool(cfg.PFPExfil)
	f.FPOverwrite = rng.Bool(cfg.PFPOverwrite)
	f.FPDelete = rng.Bool(cfg.PFPDelete)
	f.AdSlot = f.HasTP && rng.Bool(cfg.PAdSlotSite)
	f.CDNSplit = rng.Bool(cfg.PCDNSplitSite)
	f.Cloaked = f.HasTP && rng.Bool(cfg.PCloakedTracker)

	// SSO mode.
	u := rng.Float64()
	switch {
	case u < cfg.PSSOCrossEntity:
		f.SSO = "cross-entity"
	case u < cfg.PSSOCrossEntity+cfg.PSSOSameEntity:
		f.SSO = "same-entity"
	case u < cfg.PSSOCrossEntity+cfg.PSSOSameEntity+cfg.PSSORefresher:
		f.SSO = "refresher"
	case u < cfg.PSSOCrossEntity+cfg.PSSOSameEntity+cfg.PSSORefresher+cfg.PSSOSingle:
		f.SSO = "single"
	}
	if f.SSO != "" {
		pair := pickIdP(w.IdPs, f.SSO, rng)
		s.IdPA, s.IdPB = pair.LoginHost, pair.SessHost
	}

	if f.HasTP {
		planServices(cfg, s, rng, picker)
		if cfg.CMP {
			planConsent(s, rng, picker.tagManager)
		}
	}
	return s
}

func pickIdP(pairs []IdPPair, mode string, rng *stats.Rand) IdPPair {
	var candidates []IdPPair
	for _, p := range pairs {
		switch mode {
		case "same-entity":
			if p.SameEntity {
				candidates = append(candidates, p)
			}
		case "cross-entity":
			if !p.SameEntity {
				candidates = append(candidates, p)
			}
		default:
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		candidates = pairs
	}
	return candidates[rng.Intn(len(candidates))]
}

// Register installs every site and service on the fabric. Each site's
// bodies (its pages, scripts and tag-manager container) are a pure
// function of its plan and of read-only shared state (the services, the
// IdPs and the renderer), so they render on GOMAXPROCS goroutines.
// Installation is serial and in a fixed order: services, then the sites
// by rank with their CNAMEs, then the IdPs, so a later registration of
// a host wins whatever GOMAXPROCS is.
func (w *Web) Register(in *netsim.Internet) {
	r := newRenderer(w)
	containers := make([]string, len(w.Sites))
	sites := make([]*registry, len(w.Sites))
	forEach(len(w.Sites), func(i int) {
		s := w.Sites[i]
		if s.HasTagManager && r.tm != nil {
			containers[i] = r.containerScript(s)
		}
		sites[i] = r.renderSite(s)
	})
	registerServices(in, w, r.tm, containers)
	for i, s := range w.Sites {
		sites[i].install(in)
		if s.Flags.Complete && s.Flags.Cloaked && r.cloakHost != "" {
			// CNAME-cloak the first long-tail tracker behind a
			// first-party subdomain: scripts loaded from metrics.<site>
			// are actually served by the tracker (§8, "CNAME cloaking").
			in.AddCNAME("metrics."+s.Domain, r.cloakHost)
		}
	}
	registerIdPs(in, w)
}

// Build registers a fresh Internet for the web and returns it. The
// fabric is frozen after registration: the generated web is static, so
// the serving path runs lock-free from the first request. The fabric
// injects no faults: a crawl draws its fault schedule per vantage
// (netsim.Vantage.Faults), so everything else that fetches through the
// fabric sees the web as generated.
func (w *Web) BuildInternet() *netsim.Internet {
	in := netsim.New()
	w.Register(in)
	in.Freeze()
	return in
}

// CompleteSites returns the sites expected to yield complete crawl data.
func (w *Web) CompleteSites() []*Site {
	var out []*Site
	for _, s := range w.Sites {
		if s.Flags.Complete {
			out = append(out, s)
		}
	}
	return out
}

func buildIdPs(cfg Config) []IdPPair {
	n := cfg.NIdPPairs
	if n < 2 {
		n = 2
	}
	pairs := make([]IdPPair, 0, n)
	for i := 0; i < n; i++ {
		same := i%2 == 0 // half the providers split across same-entity domains
		p := IdPPair{
			Name:       fmt.Sprintf("idp-%02d", i),
			LoginHost:  fmt.Sprintf("login.idp-%02d.example", i),
			SameEntity: same,
		}
		if same {
			// Same entity, different eTLD+1 (the microsoft.com/live.com
			// shape from the paper's zoom.us example).
			p.SessHost = fmt.Sprintf("session.idp-%02d-live.example", i)
		} else {
			p.SessHost = fmt.Sprintf("session.other-idp-%02d.example", i)
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// buildEntities extends the default entity dataset with the synthetic
// universe: IdP pairs (same-entity ones share an entity) and site⇄CDN
// sibling domains for CDN-split sites. Build calls it once the sites
// are planned.
func buildEntities(w *Web) *entity.Map {
	ents := map[string][]string{}
	for _, name := range entity.Default().Entities() {
		ents[name] = entity.Default().Domains(name)
	}
	for _, p := range w.IdPs {
		if p.SameEntity {
			ents["IdP "+p.Name] = []string{
				fmt.Sprintf("idp-%s.example", p.Name[4:]),
				fmt.Sprintf("idp-%s-live.example", p.Name[4:]),
			}
		}
	}
	for _, s := range w.Sites {
		if s.Flags.CDNSplit {
			ents["Site "+s.Domain] = []string{s.Domain, cdnDomain(s)}
		}
	}
	return entity.NewMap(ents)
}

// cdnDomain is the sibling domain serving a CDN-split site's own widget
// (the facebook.com / fbcdn.net shape).
func cdnDomain(s *Site) string {
	var buf [32]byte
	return string(append(appendSiteLabel(buf[:0], s.Rank), "-cdn.example"...))
}

// appendSiteLabel appends "site" and the rank zero-padded to five
// digits, as fmt's "site%05d" prints it.
func appendSiteLabel(dst []byte, rank int) []byte {
	dst = append(dst, "site"...)
	for p := 10000; p > 1; p /= 10 {
		if rank < p {
			dst = append(dst, '0')
		}
	}
	return strconv.AppendInt(dst, int64(rank), 10)
}
