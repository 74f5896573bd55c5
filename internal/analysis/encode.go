package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"sort"
	"sync"

	"cookieguard/internal/instrument"
)

// This file defines the stable JSON shapes cookieguard.Server serves.
// Results itself holds maps with struct keys (not JSON-marshalable) and
// set-maps whose natural encoding is noisy; the row types here flatten
// them into deterministic, sorted encodings — the same log multiset
// always produces the same bytes, which is what lets the server cache
// one encoding per snapshot index and lets tests compare whole Results
// by byte equality.

// PairRow is one cookie pair's aggregate, with every set flattened to a
// sorted list.
type PairRow struct {
	Name  string         `json:"name"`
	Owner string         `json:"owner"`
	API   instrument.API `json:"api"`

	ExfilEntities     []string `json:"exfil_entities,omitempty"`
	DestEntities      []string `json:"dest_entities,omitempty"`
	OverwriterEnt     []string `json:"overwriter_entities,omitempty"`
	DeleterEnt        []string `json:"deleter_entities,omitempty"`
	ExfilDomains      []string `json:"exfil_domains,omitempty"`
	OverwriterDomains []string `json:"overwriter_domains,omitempty"`
	DeleterDomains    []string `json:"deleter_domains,omitempty"`
}

// PairRows flattens Pairs into rows sorted by (name, owner).
func (r *Results) PairRows() []PairRow {
	rows := make([]PairRow, 0, len(r.Pairs))
	for key, p := range r.Pairs {
		rows = append(rows, PairRow{
			Name: key.Name, Owner: key.Owner, API: p.API,
			ExfilEntities:     sortedKeys(p.ExfilEntities),
			DestEntities:      sortedKeys(p.DestEntities),
			OverwriterEnt:     sortedKeys(p.OverwriterEnt),
			DeleterEnt:        sortedKeys(p.DeleterEnt),
			ExfilDomains:      sortedKeys(p.ExfilDomains),
			OverwriterDomains: sortedKeys(p.OverwriterDomains),
			DeleterDomains:    sortedKeys(p.DeleterDomains),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].Owner < rows[j].Owner
	})
	return rows
}

// SiteAction is one (action, API) the site exhibited.
type SiteAction struct {
	Action ActionKind     `json:"action"`
	API    instrument.API `json:"api"`
}

// SiteRow is one site's cross-domain action record: which (action, API)
// combinations it exhibited and its detected events, in canonical order.
type SiteRow struct {
	Site    string       `json:"site"`
	Actions []SiteAction `json:"actions,omitempty"`
	Events  []Event      `json:"events,omitempty"`
}

// SiteRows lists every complete site's record, sorted by site. A row's
// Events are the site's record itself, in canonical (vantage, persona)
// order: treat them as read-only.
func (r *Results) SiteRows() []SiteRow {
	sites := r.sortedSites()
	rows := make([]SiteRow, len(sites))
	for i, site := range sites {
		rows[i] = r.sites[site].row(site)
	}
	return rows
}

// SiteRow returns one site's record, equal to its entry in SiteRows, and
// whether the site has a record at all.
func (r *Results) SiteRow(site string) (SiteRow, bool) {
	rec, found := r.sites[site]
	return rec.row(site), found
}

// row is the record's SiteRow. Its Events are clipped, so appending to
// them never writes the record's array.
func (rec siteRecord) row(site string) SiteRow {
	return SiteRow{Site: site, Actions: sortedActions(rec.actions), Events: slices.Clip(rec.events)}
}

// sortedSites lists the sites with a record, in ascending order.
func (r *Results) sortedSites() []string {
	sites := make([]string, 0, len(r.sites))
	for site := range r.sites {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	return sites
}

// sortedActions flattens one site's action set, ordered by (action, API).
func sortedActions(acts map[actionAPIKey]bool) []SiteAction {
	if len(acts) == 0 {
		return nil
	}
	out := make([]SiteAction, 0, len(acts))
	for k := range acts {
		out = append(out, SiteAction{Action: k.Kind, API: k.API})
	}
	slices.SortFunc(out, func(a, b SiteAction) int {
		if c := cmp.Compare(a.Action, b.Action); c != 0 {
			return c
		}
		return cmp.Compare(a.API, b.API)
	})
	return out
}

// SiteListing is the one encoder of site rows and their events: it
// encodes the per-site listing (Encode, /v1/sites) and the whole
// canonical Results (Results, StableJSON and /v1/results) of a sequence
// of Results, re-encoding only the rows whose inputs changed since the
// previous call. A live crawl's snapshots differ from one to the next in
// a few dozen sites, so a listing costs what changed, not the whole
// crawl. The zero value is ready to use, and its methods may be called
// concurrently.
type SiteListing struct {
	mu   sync.Mutex
	gen  uint64
	rows map[string]*listedRow
}

// listedRow is one site's cached encoding and the inputs it encodes.
// events is the site record's slice itself, which nothing writes once
// it is published.
type listedRow struct {
	gen     uint64       // the Encode call that last listed the site
	events  []Event      // the site's canonical events
	actions []SiteAction // the site's sorted actions
	enc     []byte       // json.Marshal(SiteRow); never mutated once built
}

var (
	listOpen  = []byte("[")
	listSep   = []byte(",")
	listClose = []byte("]")
	sitesKey  = []byte(`,"sites":`)
	eventsKey = []byte(`,"events":[`) // in a row and in Results
	noEvents  = []byte(`,"events":null`)
)

// Encode returns r's listing as chunks whose concatenation equals
// json.Marshal(r.SiteRows()). A row is reused when its site's events
// and actions equal the cached ones, whatever Results they came from,
// so any Results may be encoded in any order. The chunks are never
// written again: a caller may still be sending one listing while the
// next is built.
func (l *SiteListing) Encode(r *Results) ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sites := r.sortedSites()
	if l.rows == nil {
		l.rows = make(map[string]*listedRow, len(sites))
	}
	l.gen++
	chunks := make([][]byte, 0, 2*len(sites)+1)
	chunks = append(chunks, listOpen)
	for k, site := range sites {
		enc, err := l.row(site, r.sites[site])
		if err != nil {
			return nil, err
		}
		if k > 0 {
			chunks = append(chunks, listSep)
		}
		chunks = append(chunks, enc)
	}
	chunks = append(chunks, listClose)
	if len(l.rows) > len(sites) {
		for site, row := range l.rows {
			if row.gen != l.gen {
				delete(l.rows, site)
			}
		}
	}
	return chunks, nil
}

// Results returns r's StableJSON bytes as chunks, reusing Encode's rows:
// the sites key holds Encode's chunks, and the events key each row's
// events array sliced out of the row's bytes, so no event is encoded
// twice. Like Encode's, the chunks are never written again.
func (l *SiteListing) Results(r *Results) ([][]byte, error) {
	head, err := json.Marshal(struct {
		Summary    Summary                `json:"summary"`
		Pairs      []PairRow              `json:"pairs"`
		PairsByAPI map[instrument.API]int `json:"pairs_by_api"` // string keys marshal sorted
	}{r.Summary, r.PairRows(), r.PairsByAPI})
	if err != nil {
		return nil, err
	}
	tail, err := json.Marshal(struct {
		Failures FailureStats `json:"failures"`
		Vantages []VantageRow `json:"vantages"`
	}{r.Failures, r.VantageTable()})
	if err != nil {
		return nil, err
	}
	sites, err := l.Encode(r)
	if err != nil {
		return nil, err
	}
	chunks := append(make([][]byte, 0, 2*len(sites)+4), head[:len(head)-1], sitesKey) // head without its }
	chunks = append(chunks, sites...)
	events, sep := len(chunks), eventsKey
	// Rows sit at the odd indexes of Encode's chunks. "events" is a
	// SiteRow's last key, and JSON escapes every quote inside a string,
	// so the first ,"events":[ in a row is that key, and the row's events
	// are the bytes between it and the row's closing ]}.
	for k := 1; k < len(sites)-1; k += 2 {
		row := sites[k]
		if i := bytes.Index(row, eventsKey); i >= 0 {
			chunks = append(chunks, sep, row[i+len(eventsKey):len(row)-2])
			sep = listSep
		}
	}
	end := listClose
	if len(chunks) == events {
		end = noEvents
	}
	tail[0] = ',' // tail's { becomes the separator from events
	return append(chunks, end, tail), nil
}

// row returns the site's row encoding, reusing the cached one when the
// inputs are unchanged.
func (l *SiteListing) row(site string, rec siteRecord) ([]byte, error) {
	row := l.rows[site]
	if row == nil {
		row = &listedRow{}
		l.rows[site] = row
	}
	row.gen = l.gen
	if row.enc != nil && slices.Equal(row.events, rec.events) && sameActions(row.actions, rec.actions) {
		return row.enc, nil
	}
	sr := rec.row(site)
	enc, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	row.events, row.actions, row.enc = sr.Events, sr.Actions, enc
	return enc, nil
}

// sameActions reports whether the distinct actions list and the set
// hold the same elements.
func sameActions(list []SiteAction, set map[actionAPIKey]bool) bool {
	if len(list) != len(set) {
		return false
	}
	for _, a := range list {
		if !set[actionAPIKey{a.Action, a.API}] {
			return false
		}
	}
	return true
}

// RetentionTable is the crawl-retention rollup cookieguard.Server serves
// on /v1/tables/retention: how much of the crawl survived, per vantage.
type RetentionTable struct {
	SitesTotal     int          `json:"sites_total"`
	SitesComplete  int          `json:"sites_complete"`
	VisitsFailed   int          `json:"visits_failed"`
	VisitsDegraded int          `json:"visits_degraded"`
	Vantages       []VantageRow `json:"vantages"`
}

// Retention assembles the retention table.
func (r *Results) Retention() RetentionTable {
	return RetentionTable{
		SitesTotal:     r.Summary.SitesTotal,
		SitesComplete:  r.Summary.SitesComplete,
		VisitsFailed:   r.Failures.VisitsFailed,
		VisitsDegraded: r.Failures.VisitsDegraded,
		Vantages:       r.VantageTable(),
	}
}

// StableJSON encodes the finalized Results deterministically: equal
// Results (same observed log multiset) produce equal bytes, independent
// of observation order or worker count. It is the byte representation
// behind /v1/results and the order-independence contract: summary,
// pairs, pairs_by_api, sites, events, failures and vantages, where
// events are the site rows' events concatenated in site order (null
// when there are none). It joins the chunks of a fresh SiteListing's
// Results; a server keeps one listing to reuse rows across snapshots.
func (r *Results) StableJSON() ([]byte, error) {
	chunks, err := new(SiteListing).Results(r)
	if err != nil {
		return nil, err
	}
	return bytes.Join(chunks, nil), nil
}

// sortedKeys flattens a set to its sorted element list (nil when empty,
// so omitempty drops it).
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
