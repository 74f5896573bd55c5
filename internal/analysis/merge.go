package analysis

// foldState accumulates src into dst: counters sum, sets union, and
// event groups and attribution claims carry over with their observation
// sequences offset past dst's. Events are not copied here: each group
// keeps the slice header of src's Events it indexes, and finalizeState
// copies the events once, straight into canonical order. That is safe
// while src keeps observing, because Events only ever grows by append:
// elements below the captured length are never written again. Nothing
// else of src is retained by reference beyond immutable strings. Every
// fold operation is commutative across distinct (site, vantage) keys,
// and finalizeState canonicalizes the one order-sensitive structure
// (Events), so folding shards in any fixed order produces the same
// finalized Results.
func foldState(dst, src *runState) {
	obsBase := dst.obsSeq
	for _, g := range src.groups {
		g.seq += obsBase
		if g.src == nil {
			g.src = src.res.Events
		}
		dst.groups = append(dst.groups, g)
	}
	dst.obsSeq += src.obsSeq

	ds, ss := &dst.res.Summary, &src.res.Summary
	ds.SitesTotal += ss.SitesTotal
	ds.SitesComplete += ss.SitesComplete
	ds.SitesWithThirdParty += ss.SitesWithThirdParty
	ds.SitesUsingDocCookie += ss.SitesUsingDocCookie
	ds.SitesUsingCookieStore += ss.SitesUsingCookieStore
	ds.DirectScripts += ss.DirectScripts
	ds.IndirectScripts += ss.IndirectScripts
	ds.SitesWithCrossDomainDOM += ss.SitesWithCrossDomainDOM
	dst.tpScriptTotal += src.tpScriptTotal
	dst.tpCookieTotal += src.tpCookieTotal
	dst.fpCookieTotal += src.fpCookieTotal
	dst.trackerOcc += src.trackerOcc
	dst.tpOcc += src.tpOcc
	dst.indirectTrackers += src.indirectTrackers

	for key, sp := range src.res.Pairs {
		c := sp.first
		c.obs += obsBase
		dp := dst.res.Pairs[key]
		if dp == nil {
			dp = &PairInfo{Key: key, API: sp.API, first: c}
			dst.res.Pairs[key] = dp
		} else {
			dp.claim(c, sp.API)
		}
		unionInto(&dp.ExfilEntities, sp.ExfilEntities)
		unionInto(&dp.DestEntities, sp.DestEntities)
		unionInto(&dp.OverwriterEnt, sp.OverwriterEnt)
		unionInto(&dp.DeleterEnt, sp.DeleterEnt)
		unionInto(&dp.ExfilDomains, sp.ExfilDomains)
		unionInto(&dp.OverwriterDomains, sp.OverwriterDomains)
		unionInto(&dp.DeleterDomains, sp.DeleterDomains)
	}

	for site, acts := range src.res.SiteActions {
		da := dst.res.SiteActions[site]
		if da == nil {
			da = make(map[actionAPIKey]bool, len(acts))
			dst.res.SiteActions[site] = da
		}
		for k := range acts {
			da[k] = true
		}
	}

	df, sf := &dst.res.Failures, &src.res.Failures
	df.VisitsFailed += sf.VisitsFailed
	df.VisitsDegraded += sf.VisitsDegraded
	df.RequestsFailed += sf.RequestsFailed
	df.Retries += sf.Retries
	for class, n := range sf.VisitFailures {
		df.VisitFailures[class] += n
	}
	for class, n := range sf.RequestFailures {
		df.RequestFailures[class] += n
	}

	for name, sva := range src.vant {
		dva := dst.vant[name]
		if dva == nil {
			dva = &vantageAgg{}
			dst.vant[name] = dva
		}
		dva.visits += sva.visits
		dva.complete += sva.complete
		dva.failed += sva.failed
		dva.loadMs = append(dva.loadMs, sva.loadMs...)
	}

	for name, spa := range src.pers {
		dpa := dst.persona(name)
		dpa.visits += spa.visits
		dpa.complete += spa.complete
		dpa.failed += spa.failed
		dpa.tpCookies += spa.tpCookies
		dpa.exfilEvents += spa.exfilEvents
		for key := range spa.exfilPairs {
			dpa.exfilPairs[key] = true
		}
	}
}

// unionInto adds src's elements to the set *dst, allocating it only
// when src is non-empty.
func unionInto(dst *map[string]bool, src map[string]bool) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(map[string]bool, len(src))
	}
	for k := range src {
		(*dst)[k] = true
	}
}

// Merge folds independently accumulated Analyzers into one finalized
// Results, equivalent byte for byte to a single Analyzer that Observed
// the union of their logs (in any order — the canonical finalize sorts
// event groups by (site, vantage, persona) the way the scheduler's
// index-sorted fold orders outcomes). Merge reads the analyzers without
// consuming them; it must not run concurrently with Observe calls on
// them. Analyzer.Snapshot is Merge of one analyzer.
func Merge(shards ...*Analyzer) *Results {
	dst := newRunState()
	for _, a := range shards {
		if a == nil || a.st == nil {
			continue
		}
		foldState(dst, a.st)
	}
	return finalizeState(dst)
}
