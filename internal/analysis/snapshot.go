package analysis

import (
	"maps"
	"slices"
)

// foldState copies src's accumulation into dst, which must be fresh from
// newRunState, so that finalizing dst leaves src free to keep observing
// (Analyzer.Snapshot). Counters and sets are copied. Each site's events
// are not: dst shares the record's slice, which is safe while src keeps
// observing, because endObservation gives a site a new slice instead of
// writing its old one. Nothing else of src is retained by reference
// beyond immutable strings.
func foldState(dst, src *runState) {
	dst.obsSeq = src.obsSeq

	dst.res.Summary = src.res.Summary
	dst.tpScriptTotal = src.tpScriptTotal
	dst.tpCookieTotal = src.tpCookieTotal
	dst.fpCookieTotal = src.fpCookieTotal
	dst.trackerOcc = src.trackerOcc
	dst.tpOcc = src.tpOcc
	dst.indirectTrackers = src.indirectTrackers

	for key, sp := range src.res.Pairs {
		p := *sp
		p.ExfilEntities = maps.Clone(sp.ExfilEntities)
		p.DestEntities = maps.Clone(sp.DestEntities)
		p.OverwriterEnt = maps.Clone(sp.OverwriterEnt)
		p.DeleterEnt = maps.Clone(sp.DeleterEnt)
		p.ExfilDomains = maps.Clone(sp.ExfilDomains)
		p.OverwriterDomains = maps.Clone(sp.OverwriterDomains)
		p.DeleterDomains = maps.Clone(sp.DeleterDomains)
		dst.res.Pairs[key] = &p
	}
	dst.res.sites = make(map[string]siteRecord, len(src.res.sites))
	for site, rec := range src.res.sites {
		rec.actions = maps.Clone(rec.actions)
		dst.res.sites[site] = rec
	}

	f := src.res.Failures
	f.VisitFailures = maps.Clone(f.VisitFailures)
	f.RequestFailures = maps.Clone(f.RequestFailures)
	dst.res.Failures = f

	for name, sva := range src.vant {
		va := *sva
		va.loadMs = slices.Clone(sva.loadMs) // finalizeState sorts it in place
		dst.vant[name] = &va
	}
	for name, spa := range src.pers {
		pa := *spa
		pa.exfilPairs = maps.Clone(spa.exfilPairs)
		dst.pers[name] = &pa
	}
}
