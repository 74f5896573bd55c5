// Package analysis implements the paper's analysis framework (§4.4): it
// replays visit logs to attribute cookie ownership, detects cross-domain
// reads, overwrites, deletions, and exfiltration, and aggregates the
// results into every table and figure of the evaluation.
package analysis

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"net/url"
	"slices"
	"sort"
	"strings"

	"cookieguard/internal/entity"
	"cookieguard/internal/instrument"
	"cookieguard/internal/stats"
	"cookieguard/internal/urlutil"
)

// CookieKey identifies a unique cookie pair: (name, owner domain). The
// owner is the eTLD+1 of the script (or server) that first set it on a
// site — the paper's "(cookie_name, domain of the script that set the
// cookie)" tuple (§5.2).
type CookieKey struct {
	Name  string `json:"name"`
	Owner string `json:"owner"`
}

// ActionKind is a cross-domain action category (Table 1 rows).
type ActionKind string

// Cross-domain action kinds.
const (
	ActExfiltration ActionKind = "exfiltration"
	ActOverwriting  ActionKind = "overwriting"
	ActDeleting     ActionKind = "deleting"
)

// Event is one detected cross-domain action. The JSON shape is stable:
// it is served verbatim by cookieguard.Server's per-site endpoints.
type Event struct {
	Site        string         `json:"site"`
	Kind        ActionKind     `json:"kind"`
	Cookie      CookieKey      `json:"cookie"`
	ActorScript string         `json:"actor_script,omitempty"` // script URL performing the action
	ActorDomain string         `json:"actor_domain,omitempty"`
	API         instrument.API `json:"api"`
	Destination string         `json:"destination,omitempty"` // exfiltration destination domain
	// Attribute-change flags for overwrites (§5.5).
	ChangedValue   bool `json:"changed_value,omitempty"`
	ChangedExpires bool `json:"changed_expires,omitempty"`
	ChangedDomain  bool `json:"changed_domain,omitempty"`
	ChangedPath    bool `json:"changed_path,omitempty"`
}

// Analyzer holds configuration for a run. It consumes visit logs either
// in one batch (Run) or incrementally (Observe per log, then Finalize),
// so a streaming pipeline can analyze each log as the crawl produces it
// and never materialize the full log set. An Analyzer is not safe for
// concurrent use; feed it from a single goroutine.
type Analyzer struct {
	Entities *entity.Map
	// IsTracker classifies script URLs (nil disables classification).
	IsTracker func(scriptURL, siteDomain string) bool
	// MinIdentifierLen is the candidate-identifier threshold (§4.4,
	// default 8).
	MinIdentifierLen int

	// st accumulates the in-progress run between Observe calls; Finalize
	// consumes it, so the Analyzer is reusable for a fresh run afterwards.
	st *runState
}

// runState is the accumulation state of one analysis run.
type runState struct {
	res *Results

	tpScriptTotal, tpCookieTotal, fpCookieTotal int
	trackerOcc, tpOcc                           int
	indirectTrackers                            int

	// vant accumulates per-vantage visit/failure counts and load-event
	// latency samples; the key "" is the implicit default vantage.
	vant map[string]*vantageAgg

	// pers accumulates per-persona retention and exfiltration deltas;
	// the key "" is the implicit persona-free crawl.
	pers map[string]*personaAgg

	// exfil is detectExfiltration's per-observation scratch.
	exfil exfilMatcher

	// encMemo memoizes EncodedForms per identifier: crawls repeat the
	// same identifiers across reads, sites, and vantages, and the
	// md5/sha1/base64 derivations were a measurable allocation cost.
	encMemo map[string][]string

	// groups records one entry per analyzed observation — the slice of
	// res.Events it appended, keyed by (site, vantage, persona).
	// Finalize sorts the groups and rebuilds Events in that order, so
	// the finalized event sequence depends only on the observed log
	// multiset, never on observation order — the property that lets
	// shard-merged and completion-order-fed runs produce identical
	// Results.
	groups []evGroup
	// obsSeq counts observations; it tie-breaks duplicate (site,
	// vantage, persona) groups, which a real crawl never produces.
	obsSeq int

	// Per-observation scratch (valid between beginObservation and
	// endObservation).
	curSite, curVantage string
	curPersona          string
	curPers             *personaAgg
	curStart            int // len(res.Events) at observation start
	curEnsures          int // ensure-call sequence within the observation
}

// evGroup is one observation's event range, in canonical-sort terms.
type evGroup struct {
	site, vantage, persona string
	seq                    int // observation sequence (tie-break only)
	// src is the event slice [start, end) indexes: nil for the state's
	// own res.Events, or a folded source state's Events.
	src        []Event
	start, end int
}

// pairClaim is one candidate attribution of a cookie pair's API: where
// (and in what order) an ensure of the pair happened.
type pairClaim struct {
	site, vantage, persona string
	obs                    int // observation sequence
	seq                    int // ensure sequence within the observation
}

// before reports whether claim a canonically precedes claim b: sorted by
// (site, vantage, persona) like the scheduler's index-sorted fold, then
// by observation and in-observation ensure order.
func (a pairClaim) before(b pairClaim) bool {
	if a.site != b.site {
		return a.site < b.site
	}
	if a.vantage != b.vantage {
		return a.vantage < b.vantage
	}
	if a.persona != b.persona {
		return a.persona < b.persona
	}
	if a.obs != b.obs {
		return a.obs < b.obs
	}
	return a.seq < b.seq
}

// newRunState returns an empty accumulation state.
func newRunState() *runState {
	return &runState{
		res: &Results{
			Pairs:       map[CookieKey]*PairInfo{},
			PairsByAPI:  map[instrument.API]int{},
			SiteActions: map[string]map[actionAPIKey]bool{},
			Vantages:    map[string]VantageStats{},
			Personas:    map[string]PersonaStats{},
			Failures: FailureStats{
				VisitFailures:   map[string]int{},
				RequestFailures: map[string]int{},
			},
		},
		vant:    map[string]*vantageAgg{},
		pers:    map[string]*personaAgg{},
		encMemo: map[string][]string{},
	}
}

// beginObservation opens the per-observation scratch for one complete
// visit log.
func (st *runState) beginObservation(site, vantage, persona string) {
	st.curSite, st.curVantage, st.curPersona = site, vantage, persona
	st.curPers = st.persona(persona)
	st.curStart = len(st.res.Events)
	st.curEnsures = 0
}

// persona returns (creating if needed) the named persona's accumulator.
func (st *runState) persona(name string) *personaAgg {
	pa := st.pers[name]
	if pa == nil {
		pa = &personaAgg{exfilPairs: map[CookieKey]bool{}}
		st.pers[name] = pa
	}
	return pa
}

// endObservation closes the observation: its event range becomes a
// canonical-sort group.
func (st *runState) endObservation() {
	if end := len(st.res.Events); end > st.curStart {
		st.groups = append(st.groups, evGroup{
			site: st.curSite, vantage: st.curVantage, persona: st.curPersona,
			seq: st.obsSeq, start: st.curStart, end: end,
		})
	}
	st.obsSeq++
}

// ensurePair returns (creating if needed) the pair's accumulator and
// records the ensure as an attribution claim. Every pair-map touch of
// the replay goes through here, so the pair's first claim sees every
// candidate.
func (st *runState) ensurePair(key CookieKey, api instrument.API) *PairInfo {
	st.curEnsures++
	c := pairClaim{
		site: st.curSite, vantage: st.curVantage, persona: st.curPersona,
		obs: st.obsSeq, seq: st.curEnsures,
	}
	p := st.res.Pairs[key]
	if p == nil {
		p = &PairInfo{Key: key, API: api, first: c}
		st.res.Pairs[key] = p
	} else {
		p.claim(c, api)
	}
	return p
}

// vantageAgg is the in-progress per-vantage rollup.
type vantageAgg struct {
	visits, complete, failed int
	loadMs                   []float64
}

// personaAgg is the in-progress per-persona rollup: retention counts
// plus the tracking deltas the consent comparison is about — how many
// third-party cookies were created and how much exfiltration happened
// under this persona's consent state.
type personaAgg struct {
	visits, complete, failed int
	tpCookies                int
	exfilEvents              int
	exfilPairs               map[CookieKey]bool
}

// New returns an Analyzer with the default entity map.
func New() *Analyzer {
	return &Analyzer{Entities: entity.Default(), MinIdentifierLen: 8}
}

// Results aggregates everything the report generators need.
type Results struct {
	Summary    Summary
	Events     []Event
	Pairs      map[CookieKey]*PairInfo
	PairsByAPI map[instrument.API]int

	// Per-site action presence (for Table 1 and Figure 5).
	SiteActions map[string]map[actionAPIKey]bool

	// Failures is the crawl-failure rollup across every observed log —
	// including incomplete ones, which is where most failures live.
	Failures FailureStats

	// Vantages is the per-vantage rollup: visit/failure counts and the
	// load-event latency tail, keyed by VisitLog.Vantage ("" is the
	// implicit default vantage). A multi-vantage run feeds every
	// vantage's stream through one analyzer and compares the tails here
	// (VantageTable — the Figure 6 comparison across regions).
	Vantages map[string]VantageStats

	// Personas is the per-persona rollup, keyed by VisitLog.Persona
	// ("" is the implicit persona-free crawl): retention counts plus
	// the consent deltas — third-party cookie creations and
	// exfiltration volume under each consent state. A persona crawl
	// (accept vs reject vs dismiss) compares them here (PersonaTable).
	Personas map[string]PersonaStats
}

// PersonaStats summarizes one consent persona's crawl: how many visits
// it performed, kept, and lost, and the tracking it admitted — the
// third-party cookies created and the exfiltration events and unique
// exfiltrated cookie pairs observed under its consent state. On a
// CMP-enabled web the accept persona's TPCookies and ExfilPairs
// strictly exceed the reject persona's: rejected trackers never load,
// so their cookies and leaks never happen.
type PersonaStats struct {
	Visits   int `json:"visits"`
	Complete int `json:"complete"`
	Failed   int `json:"failed"` // fatal landing failures (incl. circuit-open sheds)

	// TPCookies counts third-party cookie creations (the retained
	// tracker-cookie volume); ExfilEvents counts detected exfiltration
	// events and ExfilPairs the unique cookie pairs they leaked.
	TPCookies   int `json:"tp_cookies"`
	ExfilEvents int `json:"exfil_events"`
	ExfilPairs  int `json:"exfil_pairs"`
}

// VantageStats summarizes one vantage point's crawl: how many visits it
// performed, kept, and lost, and the latency tail of its load-event
// milestones over complete visits. Quantiles are order-independent, so
// equal log multisets produce equal VantageStats at any worker count.
type VantageStats struct {
	Visits   int `json:"visits"`
	Complete int `json:"complete"`
	Failed   int `json:"failed"` // fatal landing failures (incl. circuit-open sheds)

	// Load-event latency tail over complete visits, in virtual ms.
	LoadMeanMs float64 `json:"load_mean_ms"`
	LoadP50Ms  float64 `json:"load_p50_ms"`
	LoadP90Ms  float64 `json:"load_p90_ms"`
	LoadP99Ms  float64 `json:"load_p99_ms"`
	LoadMaxMs  float64 `json:"load_max_ms"`
}

// FailureStats aggregates the failure taxonomy of a crawl: how many
// visits were lost outright and to what (VisitFailures, keyed by
// browser.FailureClass strings), how many retained visits were degraded,
// and the per-request failure and retry totals. A fault-free crawl of a
// fault-free web leaves every count at zero.
type FailureStats struct {
	VisitsFailed   int `json:"visits_failed"`   // visits with no usable landing document
	VisitsDegraded int `json:"visits_degraded"` // retained visits that lost a subresource or hit the deadline

	// VisitFailures counts visits by failure class: the fatal class of
	// each lost visit, plus "deadline" for retained visits whose budget
	// expired mid-visit — so its total can exceed VisitsFailed by
	// exactly the deadline-degraded count.
	VisitFailures   map[string]int `json:"visit_failures,omitempty"`
	RequestFailures map[string]int `json:"request_failures,omitempty"` // failure class → failed request count
	RequestsFailed  int            `json:"requests_failed"`            // total failed requests (all classes)
	Retries         int            `json:"retries"`                    // total retry attempts across all requests
}

// observe folds one visit log into the rollup.
func (f *FailureStats) observe(v *instrument.VisitLog) {
	if !v.OK {
		f.VisitsFailed++
		class := v.Failure
		if class == "" {
			class = "unclassified"
		}
		f.VisitFailures[class]++
	} else if v.Degraded() {
		f.VisitsDegraded++
		if v.Failure != "" { // mid-visit deadline on a retained visit
			f.VisitFailures[v.Failure]++
		}
	}
	for i := range v.Requests {
		r := &v.Requests[i]
		f.Retries += r.Retries
		if r.Failed {
			f.RequestsFailed++
			class := r.Failure
			if class == "" {
				class = "unclassified"
			}
			f.RequestFailures[class]++
		}
	}
}

type actionAPIKey struct {
	Kind ActionKind
	API  instrument.API
}

// PairInfo accumulates per-cookie-pair statistics. Its set fields are
// nil until their first element (most pairs are never manipulated or
// exfiltrated), so read them with len and range only; outside this
// package they are read-only.
type PairInfo struct {
	Key CookieKey
	API instrument.API

	ExfilEntities map[string]bool // entities whose scripts exfiltrated it
	DestEntities  map[string]bool
	OverwriterEnt map[string]bool
	DeleterEnt    map[string]bool

	ExfilDomains      map[string]bool // script domains (Figure 2)
	OverwriterDomains map[string]bool // Figure 8a
	DeleterDomains    map[string]bool // Figure 8b

	// first is the canonically-first ensure of the pair (smallest
	// (site, vantage, persona, observation, in-observation sequence));
	// API is always that ensure's API. Tracking it explicitly, instead
	// of relying on map-creation order, is what keeps pair attribution
	// observation-order-independent.
	first pairClaim
}

// claim makes c the pair's attribution if it canonically precedes the
// current one.
func (p *PairInfo) claim(c pairClaim, api instrument.API) {
	if c.before(p.first) {
		p.first, p.API = c, api
	}
}

// setAdd inserts k into the set *m, allocating the set on first use.
func setAdd(m *map[string]bool, k string) {
	if *m == nil {
		*m = map[string]bool{}
	}
	(*m)[k] = true
}

// Summary carries the §5.1/5.2/5.6/§8 headline statistics. The JSON
// shape is stable: cookieguard.Server serves it on /v1/summary.
type Summary struct {
	SitesTotal    int `json:"sites_total"`
	SitesComplete int `json:"sites_complete"`

	SitesWithThirdParty   int     `json:"sites_with_third_party"`
	MeanTPScriptsPerSite  float64 `json:"mean_tp_scripts_per_site"`
	TrackerScriptShare    float64 `json:"tracker_script_share"` // of third-party script occurrences
	MeanTPCookiesPerSite  float64 `json:"mean_tp_cookies_per_site"`
	MeanFPCookiesPerSite  float64 `json:"mean_fp_cookies_per_site"`
	SitesUsingDocCookie   int     `json:"sites_using_doc_cookie"`
	SitesUsingCookieStore int     `json:"sites_using_cookie_store"`

	UniquePairsDocument    int `json:"unique_pairs_document"`
	UniquePairsCookieStore int `json:"unique_pairs_cookie_store"`

	DirectScripts        int     `json:"direct_scripts"`
	IndirectScripts      int     `json:"indirect_scripts"`
	IndirectTrackerShare float64 `json:"indirect_tracker_share"`

	SitesWithCrossDomainDOM int `json:"sites_with_cross_domain_dom"`
}

// Run analyzes the retained visit logs in one batch. It is implemented
// on the incremental path: every log is Observed in input order and the
// aggregates come from Finalize, so batch and streaming runs over the
// same log sequence produce identical Results.
func (a *Analyzer) Run(logs []instrument.VisitLog) *Results {
	for i := range logs {
		a.Observe(logs[i])
	}
	return a.Finalize()
}

// Observe folds one visit log into the in-progress run. Incomplete logs
// count toward SitesTotal but are otherwise skipped, exactly as in the
// batch path. Observe retains no reference to v once it returns, so a
// streaming caller holds O(1) logs per Observe.
func (a *Analyzer) Observe(v instrument.VisitLog) {
	st := a.state()
	st.res.Summary.SitesTotal++
	// The failure rollup sees every log — incomplete visits are exactly
	// the ones the failure table is about — before the retention skip.
	st.res.Failures.observe(&v)
	va := st.vant[v.Vantage]
	if va == nil {
		va = &vantageAgg{}
		st.vant[v.Vantage] = va
	}
	va.visits++
	pa := st.persona(v.Persona)
	pa.visits++
	if !v.OK {
		va.failed++
		pa.failed++
	}
	if !v.Complete() {
		return
	}
	va.complete++
	pa.complete++
	va.loadMs = append(va.loadMs, v.Timing.LoadEvent)
	st.res.Summary.SitesComplete++
	st.beginObservation(v.Site, v.Vantage, v.Persona)
	a.analyzeSite(&v, st)
	st.endObservation()
}

// Finalize computes the aggregate statistics over everything Observed so
// far and returns the Results, resetting the Analyzer for a fresh run.
//
// The finalized Results are canonical: events are ordered by (site,
// vantage) group — not by observation order — and each pair's API
// attribution comes from the canonically-first ensure, so any feed order
// of the same log multiset (streaming completion order, sorted batches,
// shard-merged fan-out) finalizes to identical Results.
func (a *Analyzer) Finalize() *Results {
	st := a.state()
	a.st = nil
	return finalizeState(st)
}

// Snapshot computes the aggregate Results over everything Observed so
// far without consuming the run: the Analyzer keeps accumulating and a
// later Observe/Finalize continues where it left off. The returned
// Results share nothing with the in-progress state, so callers may
// publish them to concurrent readers while observation continues.
func (a *Analyzer) Snapshot() *Results {
	dst := newRunState()
	if a.st != nil {
		foldState(dst, a.st)
	}
	return finalizeState(dst)
}

// finalizeState canonicalizes and aggregates an owned run state into its
// final Results. The state must not be used afterwards.
func finalizeState(st *runState) *Results {
	res := st.res
	// Canonical event order: groups sorted by (site, vantage, persona) —
	// the same total order cmd/crawl -sort emits — with the observation
	// sequence as a tie-break for duplicate keys (which a real crawl,
	// visiting each site once per crawl-plan unit, never produces).
	if len(st.groups) > 0 {
		sort.Slice(st.groups, func(i, j int) bool {
			gi, gj := &st.groups[i], &st.groups[j]
			if gi.site != gj.site {
				return gi.site < gj.site
			}
			if gi.vantage != gj.vantage {
				return gi.vantage < gj.vantage
			}
			if gi.persona != gj.persona {
				return gi.persona < gj.persona
			}
			return gi.seq < gj.seq
		})
		n := 0
		for _, g := range st.groups {
			n += g.end - g.start
		}
		rebuilt := make([]Event, 0, n)
		for _, g := range st.groups {
			src := g.src
			if src == nil {
				src = res.Events
			}
			rebuilt = append(rebuilt, src[g.start:g.end]...)
		}
		res.Events = rebuilt
	}
	s := &res.Summary
	if s.SitesComplete > 0 {
		s.MeanTPScriptsPerSite = float64(st.tpScriptTotal) / float64(s.SitesComplete)
		s.MeanTPCookiesPerSite = float64(st.tpCookieTotal) / float64(s.SitesComplete)
		s.MeanFPCookiesPerSite = float64(st.fpCookieTotal) / float64(s.SitesComplete)
	}
	if st.tpOcc > 0 {
		s.TrackerScriptShare = float64(st.trackerOcc) / float64(st.tpOcc)
	}
	if s.IndirectScripts > 0 {
		s.IndirectTrackerShare = float64(st.indirectTrackers) / float64(s.IndirectScripts)
	}
	for _, p := range res.Pairs {
		res.PairsByAPI[p.API]++
	}
	s.UniquePairsDocument = res.PairsByAPI[instrument.APIDocument] + res.PairsByAPI[instrument.APIHTTP]
	s.UniquePairsCookieStore = res.PairsByAPI[instrument.APICookieStore]
	for name, va := range st.vant {
		vs := VantageStats{Visits: va.visits, Complete: va.complete, Failed: va.failed}
		if len(va.loadMs) > 0 {
			sort.Float64s(va.loadMs)
			vs.LoadMeanMs = stats.Mean(va.loadMs)
			vs.LoadP50Ms = stats.Quantile(va.loadMs, 0.50)
			vs.LoadP90Ms = stats.Quantile(va.loadMs, 0.90)
			vs.LoadP99Ms = stats.Quantile(va.loadMs, 0.99)
			vs.LoadMaxMs = va.loadMs[len(va.loadMs)-1]
		}
		res.Vantages[name] = vs
	}
	for name, pa := range st.pers {
		res.Personas[name] = PersonaStats{
			Visits: pa.visits, Complete: pa.complete, Failed: pa.failed,
			TPCookies:   pa.tpCookies,
			ExfilEvents: pa.exfilEvents,
			ExfilPairs:  len(pa.exfilPairs),
		}
	}
	return res
}

// state lazily creates the run state and applies config defaults, so the
// first Observe of a run fixes the effective configuration.
func (a *Analyzer) state() *runState {
	if a.st == nil {
		if a.MinIdentifierLen <= 0 {
			a.MinIdentifierLen = 8
		}
		if a.Entities == nil {
			a.Entities = entity.Default()
		}
		a.st = newRunState()
	}
	return a.st
}

// ownership tracks per-site cookie state during replay.
type cookieState struct {
	owner    string // eTLD+1 of the first setter
	ownerURL string
	api      instrument.API
	value    string
	maxAge   int64
	domain   string
	path     string
	live     bool
}

func (a *Analyzer) analyzeSite(v *instrument.VisitLog, st *runState) {
	res := st.res
	site := v.Site
	siteActs := res.SiteActions[site]
	if siteActs == nil {
		siteActs = map[actionAPIKey]bool{}
		res.SiteActions[site] = siteActs
	}

	// --- Script inventory (§5.1, §5.6) ---
	seenScript := map[string]bool{}
	for _, sr := range v.Scripts {
		if sr.Inline || sr.Failed {
			continue
		}
		if sr.Domain == "" || sr.Domain == site {
			continue
		}
		if seenScript[sr.URL] {
			continue
		}
		seenScript[sr.URL] = true
		st.tpScriptTotal++
		st.tpOcc++
		isTrk := a.IsTracker != nil && a.IsTracker(sr.URL, site)
		if isTrk {
			st.trackerOcc++
		}
		if sr.Direct() {
			res.Summary.DirectScripts++
		} else {
			res.Summary.IndirectScripts++
			if isTrk {
				st.indirectTrackers++
			}
		}
	}
	if len(seenScript) > 0 {
		res.Summary.SitesWithThirdParty++
	}

	// --- Cookie replay: ownership, manipulation ---
	state := a.replayCookies(v, st, siteActs)

	// --- Exfiltration (§4.4) ---
	a.detectExfiltration(v, site, state, st, siteActs)

	// --- Cross-domain DOM modification (§8 pilot) ---
	for _, m := range v.Mutations {
		if instrument.MutationCrossDomain(m, site) {
			res.Summary.SitesWithCrossDomainDOM++
			break
		}
	}
}

// replayCookies replays the visit's main-frame cookie operations in
// order: it attributes each cookie to its first setter, records
// cross-domain overwrites and deletions, and returns the per-name cookie
// state the visit ended with, which exfiltration matching reads.
func (a *Analyzer) replayCookies(v *instrument.VisitLog, st *runState, siteActs map[actionAPIKey]bool) map[string]*cookieState {
	res := st.res
	site := v.Site
	state := map[string]*cookieState{}
	ensurePair := st.ensurePair
	usesDoc, usesStore := false, false

	for _, ev := range v.Cookies {
		if !ev.MainFrame {
			continue
		}
		switch ev.Op {
		case instrument.OpHTTPSet:
			cs := state[ev.Name]
			if cs == nil {
				owner := ev.Domain // response domain
				state[ev.Name] = &cookieState{owner: owner, api: instrument.APIHTTP,
					value: ev.Value, live: true}
				ensurePair(CookieKey{Name: ev.Name, Owner: owner}, instrument.APIHTTP)
				if owner == site {
					st.fpCookieTotal++
				} else {
					st.tpCookieTotal++
					st.curPers.tpCookies++
				}
			} else {
				cs.value = ev.Value
				cs.live = true
			}

		case instrument.OpWrite:
			usesDoc = usesDoc || ev.API == instrument.APIDocument
			usesStore = usesStore || ev.API == instrument.APICookieStore
			actor := a.actorDomain(ev, site)
			cs := state[ev.Name]
			if cs == nil || !cs.live {
				// creation (or resurrection): actor becomes owner
				state[ev.Name] = &cookieState{
					owner: actor, ownerURL: ev.ScriptURL, api: ev.API,
					value: ev.Value, maxAge: ev.MaxAge,
					domain: ev.Domain, path: ev.Path, live: true,
				}
				ensurePair(CookieKey{Name: ev.Name, Owner: actor}, ev.API)
				if actor == site {
					st.fpCookieTotal++
				} else {
					st.tpCookieTotal++
					st.curPers.tpCookies++
				}
				continue
			}
			// overwrite of a live cookie
			if actor != cs.owner && actor != "" {
				key := CookieKey{Name: ev.Name, Owner: cs.owner}
				p := ensurePair(key, cs.api)
				e := Event{
					Site: site, Kind: ActOverwriting, Cookie: key,
					ActorScript: ev.ScriptURL, ActorDomain: actor, API: ev.API,
					ChangedValue:   ev.Value != cs.value,
					ChangedExpires: ev.MaxAge != cs.maxAge,
					ChangedDomain:  ev.Domain != cs.domain && ev.Domain != "",
					ChangedPath:    ev.Path != cs.path && ev.Path != "",
				}
				res.Events = append(res.Events, e)
				setAdd(&p.OverwriterEnt, a.Entities.EntityOf(actor))
				setAdd(&p.OverwriterDomains, actor)
				siteActs[actionAPIKey{ActOverwriting, cs.api}] = true
			}
			cs.value = ev.Value
			cs.maxAge = ev.MaxAge

		case instrument.OpDelete:
			usesDoc = usesDoc || ev.API == instrument.APIDocument
			usesStore = usesStore || ev.API == instrument.APICookieStore
			actor := a.actorDomain(ev, site)
			cs := state[ev.Name]
			if cs == nil || !cs.live {
				continue // deleting a non-existent cookie: no effect
			}
			if actor != cs.owner && actor != "" {
				key := CookieKey{Name: ev.Name, Owner: cs.owner}
				p := ensurePair(key, cs.api)
				res.Events = append(res.Events, Event{
					Site: site, Kind: ActDeleting, Cookie: key,
					ActorScript: ev.ScriptURL, ActorDomain: actor, API: ev.API,
				})
				setAdd(&p.DeleterEnt, a.Entities.EntityOf(actor))
				setAdd(&p.DeleterDomains, actor)
				siteActs[actionAPIKey{ActDeleting, cs.api}] = true
			}
			cs.live = false

		case instrument.OpRead:
			usesDoc = usesDoc || ev.API == instrument.APIDocument
			usesStore = usesStore || ev.API == instrument.APICookieStore
		}
	}
	if usesDoc {
		res.Summary.SitesUsingDocCookie++
	}
	if usesStore {
		res.Summary.SitesUsingCookieStore++
	}
	return state
}

// actorDomain resolves the acting script's eTLD+1; inline scripts are
// unattributable and the page itself acts as the site.
func (a *Analyzer) actorDomain(ev instrument.CookieEvent, site string) string {
	if ev.ScriptDomain != "" {
		return ev.ScriptDomain
	}
	if ev.Inline {
		return "" // unattributable
	}
	return site
}

// detectExfiltration implements the identifier pipeline: split cookie
// values on non-alphanumeric delimiters, keep candidates ≥ MinIdentifierLen,
// derive raw/Base64/MD5/SHA1 forms, and match them against the query
// strings of outbound requests initiated by main-frame scripts.
func (a *Analyzer) detectExfiltration(v *instrument.VisitLog, site string,
	state map[string]*cookieState, st *runState, siteActs map[actionAPIKey]bool) {
	res := st.res
	m := &st.exfil
	if !m.reset(a, st, v.URL, state) {
		return
	}
	for _, req := range v.Requests {
		if !req.MainFrame || req.InitiatorScript == "" {
			continue
		}
		actorDomain := req.InitiatorDomain
		if actorDomain == "" {
			continue // unattributable actor: no candidate can leak
		}
		query := m.scan(req.URL, a.MinIdentifierLen)
		if query == "" {
			continue
		}
		destDomain := urlutil.RegistrableDomain(req.URL)

		for ci, c := range m.cands {
			if actorDomain == c.key.Owner {
				continue // authorized (same-domain) exfiltration
			}
			if destDomain == c.key.Owner {
				continue // sent back to the owner: not a third-party leak
			}
			if !m.hit(ci, query) {
				continue
			}
			p := st.ensurePair(c.key, c.api)
			res.Events = append(res.Events, Event{
				Site: site, Kind: ActExfiltration, Cookie: c.key,
				ActorScript: req.InitiatorScript, ActorDomain: actorDomain,
				API: c.api, Destination: destDomain,
			})
			st.curPers.exfilEvents++
			st.curPers.exfilPairs[c.key] = true
			actorEnt := a.Entities.EntityOf(actorDomain)
			ownerEnt := a.Entities.EntityOf(c.key.Owner)
			if actorEnt != ownerEnt {
				setAdd(&p.ExfilEntities, actorEnt)
			}
			setAdd(&p.DestEntities, a.Entities.EntityOf(destDomain))
			setAdd(&p.ExfilDomains, actorDomain)
			siteActs[actionAPIKey{ActExfiltration, c.api}] = true
		}
	}
}

// exfilMatcher is detectExfiltration's working set for one observation:
// the candidate cookies in name order, their encoded forms, an index
// from form to candidates, and the current request's hit marks and
// decoded query values. It lives on the runState and is reset for each
// observation, so once its buffers have grown, matching a request
// builds no map or slice: what it allocates is the URL parse and the
// decoding of escaped query values.
type exfilMatcher struct {
	cands   []exfilCandidate
	forms   []string         // every candidate's forms, back to back
	urlIDs  []string         // identifiers of the page URL
	formIdx map[string]int32 // form → head of its candidate chain in refs
	refs    []formRef
	hits    []bool   // per candidate: a form seen as a whole identifier
	vals    []string // decoded query values of the current request
}

// exfilCandidate is one cookie whose value holds identifiers; its forms
// are forms[lo:hi] of the matcher.
type exfilCandidate struct {
	key    CookieKey
	api    instrument.API
	lo, hi int
}

// formRef links one (form, candidate) occurrence to the next candidate
// with the same form; next is -1 at the end of the chain.
type formRef struct{ cand, next int32 }

// reset builds the observation's candidates from the replayed cookie
// state. It reports false when there are none.
func (m *exfilMatcher) reset(a *Analyzer, st *runState, pageURL string, state map[string]*cookieState) bool {
	minLen := a.MinIdentifierLen
	// Tokens of the page URL are not identifiers: cookies often embed
	// the page location (e.g. Marketo's _mch token), and every beacon
	// reports the page URL, so URL-derived segments would match
	// everywhere without carrying any user-specific information.
	m.urlIDs = m.urlIDs[:0]
	for id, i := nextIdentifier(pageURL, minLen, 0); id != ""; id, i = nextIdentifier(pageURL, minLen, i) {
		m.urlIDs = append(m.urlIDs, id)
	}
	m.cands, m.forms = m.cands[:0], m.forms[:0]
	for name, cs := range state {
		if cs.value == "" {
			continue
		}
		lo, ids := len(m.forms), 0
		for id, i := nextIdentifier(cs.value, minLen, 0); id != ""; id, i = nextIdentifier(cs.value, minLen, i) {
			ids++
			if slices.Contains(m.urlIDs, id) {
				continue
			}
			m.forms = append(m.forms, a.encodedForms(st, id)...)
		}
		if ids == 0 {
			continue
		}
		m.cands = append(m.cands, exfilCandidate{
			key: CookieKey{Name: name, Owner: cs.owner}, api: cs.api,
			lo: lo, hi: len(m.forms),
		})
	}
	if len(m.cands) == 0 {
		return false
	}
	// state is a map, so candidate order (and with it Event order) would
	// vary run to run; cookie names are unique per site, so sorting on
	// the name makes repeated runs over the same logs byte-identical.
	slices.SortFunc(m.cands, func(x, y exfilCandidate) int {
		return strings.Compare(x.key.Name, y.key.Name)
	})
	if m.formIdx == nil {
		m.formIdx = map[string]int32{}
	}
	clear(m.formIdx)
	m.refs = m.refs[:0]
	for ci, c := range m.cands {
		for _, f := range m.forms[c.lo:c.hi] {
			next, ok := m.formIdx[f]
			if !ok {
				next = -1
			}
			m.formIdx[f] = int32(len(m.refs))
			m.refs = append(m.refs, formRef{cand: int32(ci), next: next})
		}
	}
	m.hits = slices.Grow(m.hits[:0], len(m.cands))[:len(m.cands)]
	return true
}

// scan parses one request URL, collects its decoded query values, and
// marks every candidate with a form equal to a whole identifier run of
// the raw query or of a decoded value. It returns the raw query, or ""
// when the URL does not parse or has no query (nothing can match).
//
// Short forms must match a whole run; only long forms (≥ 12 chars,
// e.g. Base64 and hash encodings) may match as substrings (see hit).
// Plain containment would false-positive on timestamps, where one
// cookie's seconds-resolution value is a prefix of another script's
// millisecond timestamp.
func (m *exfilMatcher) scan(rawURL string, minLen int) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.RawQuery == "" {
		return ""
	}
	query := u.RawQuery
	clear(m.hits)
	m.vals = appendQueryValues(m.vals[:0], query)
	m.mark(query, minLen)
	// Decoded values too: encodings may be %-escaped in the query.
	for _, v := range m.vals {
		m.mark(v, minLen)
	}
	return query
}

// mark sets the hit of every candidate having a form equal to one of
// s's identifier runs.
func (m *exfilMatcher) mark(s string, minLen int) {
	for id, i := nextIdentifier(s, minLen, 0); id != ""; id, i = nextIdentifier(s, minLen, i) {
		r, ok := m.formIdx[id]
		if !ok {
			continue
		}
		for ; r >= 0; r = m.refs[r].next {
			m.hits[m.refs[r].cand] = true
		}
	}
}

// hit reports whether candidate ci matched the scanned request: one of
// its forms was a whole identifier run, or one of its long forms occurs
// in the raw query or in a decoded value. No form contains '\n', so
// testing the values one by one equals testing them joined by "\n".
func (m *exfilMatcher) hit(ci int, query string) bool {
	if m.hits[ci] {
		return true
	}
	c := m.cands[ci]
	for _, f := range m.forms[c.lo:c.hi] {
		if len(f) < 12 {
			continue
		}
		if strings.Contains(query, f) {
			return true
		}
		for _, v := range m.vals {
			if strings.Contains(v, f) {
				return true
			}
		}
	}
	return false
}

// appendQueryValues appends the decoded values of a raw query string to
// dst, keeping exactly the values url.ParseQuery would: pairs holding a
// ';' or failing to unescape are dropped. Keys are checked but not kept;
// values come in query order, not key order, which matching ignores.
func appendQueryValues(dst []string, query string) []string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if _, err := url.QueryUnescape(key); err != nil {
			continue
		}
		value, err := url.QueryUnescape(value)
		if err != nil {
			continue
		}
		dst = append(dst, value)
	}
	return dst
}

// ExtractIdentifiers splits a cookie value on non-alphanumeric delimiters
// and returns the segments of at least minLen characters (§4.4).
func ExtractIdentifiers(value string, minLen int) []string {
	var out []string
	for id, i := nextIdentifier(value, minLen, 0); id != ""; id, i = nextIdentifier(value, minLen, i) {
		out = append(out, id)
	}
	return out
}

// nextIdentifier returns the first alphanumeric run of at least minLen
// (and at least one) characters in s at or after byte i, and the offset
// to resume from; id is "" when there is none. It slices s in place.
func nextIdentifier(s string, minLen, i int) (id string, next int) {
	start := -1
	for ; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= minLen {
			return s[start:i], i + 1
		}
		start = -1
	}
	if start >= 0 && len(s)-start >= minLen {
		return s[start:], len(s)
	}
	return "", len(s)
}

// encMemoMax caps the per-run identifier-encoding memo; the distinct
// identifier population of a crawl is far smaller (cookie values repeat
// across reads, sites, and vantages), so the cap is purely defensive.
const encMemoMax = 1 << 17

// encodedForms is EncodedForms memoized per run: the same identifier is
// encoded once per analysis run instead of once per observation. The
// returned slice is shared and must not be mutated — callers only
// append it into their own form lists.
func (a *Analyzer) encodedForms(st *runState, id string) []string {
	if f, ok := st.encMemo[id]; ok {
		return f
	}
	f := EncodedForms(id)
	if len(st.encMemo) < encMemoMax {
		st.encMemo[id] = f
	}
	return f
}

// EncodedForms returns the matchable representations of an identifier:
// raw, Base64 (padding stripped — delimiters would split it anyway), MD5
// hex, and SHA1 hex (§4.4).
func EncodedForms(id string) []string {
	bid := []byte(id)
	b64 := strings.TrimRight(base64.StdEncoding.EncodeToString(bid), "=")
	m := md5.Sum(bid)
	s := sha1.Sum(bid)
	return []string{id, b64, hex.EncodeToString(m[:]), hex.EncodeToString(s[:])}
}

// SortedPairs returns pair infos ordered by a metric, descending.
func SortedPairs(pairs map[CookieKey]*PairInfo, metric func(*PairInfo) int) []*PairInfo {
	out := make([]*PairInfo, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := metric(out[i]), metric(out[j])
		if mi != mj {
			return mi > mj
		}
		if out[i].Key.Name != out[j].Key.Name {
			return out[i].Key.Name < out[j].Key.Name
		}
		return out[i].Key.Owner < out[j].Key.Owner
	})
	return out
}

// TopEntities returns up to k entity names sorted alphabetically (used
// for the "Top 3" columns; deterministic presentation).
func TopEntities(set map[string]bool, k int) []string {
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
