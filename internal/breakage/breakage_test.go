package breakage

import (
	"testing"

	"cookieguard/internal/artifact"
	"cookieguard/internal/webgen"
)

func buildWeb(t *testing.T, n int) (*webgen.Web, []*webgen.Site) {
	t.Helper()
	w := webgen.Build(webgen.DefaultConfig(n))
	return w, Sample(w, 100)
}

func findSite(sample []*webgen.Site, pred func(*webgen.Site) bool) *webgen.Site {
	for _, s := range sample {
		if pred(s) {
			return s
		}
	}
	return nil
}

func TestNoGuardNothingBreaks(t *testing.T) {
	w, sample := buildWeb(t, 150)
	in := w.BuildInternet()
	table, _, err := Evaluate(in, w, sample[:40], NoGuard, artifact.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []Category{Navigation, SSO, Appearance, Functionality} {
		if table.Pct[cat][Major] != 0 || table.Pct[cat][Minor] != 0 {
			t.Errorf("%s breaks without guard: %+v", cat, table.Pct[cat])
		}
	}
}

func TestStrictGuardBreaksTwoDomainSSO(t *testing.T) {
	w, sample := buildWeb(t, 400)
	in := w.BuildInternet()
	s := findSite(sample, func(s *webgen.Site) bool {
		return s.Flags.SSO == "same-entity" || s.Flags.SSO == "cross-entity"
	})
	if s == nil {
		t.Skip("no two-domain SSO site in sample")
	}
	rep, err := CheckSite(in, w, s, GuardStrict)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[SSO] != Major {
		t.Fatalf("two-domain SSO under strict guard = %v, want major", rep.Results[SSO])
	}
	// Navigation and appearance stay intact (Table 3: 0%).
	if rep.Results[Navigation] != None || rep.Results[Appearance] != None {
		t.Fatalf("unexpected nav/appearance breakage: %+v", rep.Results)
	}
}

func TestWhitelistRepairsSameEntitySSO(t *testing.T) {
	w, sample := buildWeb(t, 400)
	in := w.BuildInternet()
	s := findSite(sample, func(s *webgen.Site) bool { return s.Flags.SSO == "same-entity" })
	if s == nil {
		t.Skip("no same-entity SSO site in sample")
	}
	rep, err := CheckSite(in, w, s, GuardWhitelist)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[SSO] != None {
		t.Fatalf("same-entity SSO under whitelist = %v, want none", rep.Results[SSO])
	}
}

func TestWhitelistDoesNotRepairCrossEntitySSO(t *testing.T) {
	w, sample := buildWeb(t, 600)
	in := w.BuildInternet()
	s := findSite(sample, func(s *webgen.Site) bool { return s.Flags.SSO == "cross-entity" })
	if s == nil {
		t.Skip("no cross-entity SSO site in sample")
	}
	rep, err := CheckSite(in, w, s, GuardWhitelist)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[SSO] != Major {
		t.Fatalf("cross-entity SSO under whitelist = %v, want major (the 3%% residual)", rep.Results[SSO])
	}
}

func TestSingleProviderSSOUnaffected(t *testing.T) {
	w, sample := buildWeb(t, 300)
	in := w.BuildInternet()
	s := findSite(sample, func(s *webgen.Site) bool { return s.Flags.SSO == "single" })
	if s == nil {
		t.Skip("no single-provider SSO site in sample")
	}
	rep, err := CheckSite(in, w, s, GuardStrict)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[SSO] != None {
		t.Fatalf("single-provider SSO under strict guard = %v, want none", rep.Results[SSO])
	}
}

func TestRefresherSSOMinor(t *testing.T) {
	w, sample := buildWeb(t, 1200)
	in := w.BuildInternet()
	s := findSite(sample, func(s *webgen.Site) bool { return s.Flags.SSO == "refresher" })
	if s == nil {
		t.Skip("no refresher SSO site in sample")
	}
	rep, err := CheckSite(in, w, s, GuardStrict)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[SSO] != Minor {
		t.Fatalf("refresher SSO under strict guard = %v, want minor (cnn.com case)", rep.Results[SSO])
	}
	// Without guard it is fine.
	rep2, err := CheckSite(in, w, s, NoGuard)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Results[SSO] != None {
		t.Fatalf("refresher SSO without guard = %v", rep2.Results[SSO])
	}
}

func TestCDNSplitMajorFixedByWhitelist(t *testing.T) {
	w, sample := buildWeb(t, 600)
	in := w.BuildInternet()
	s := findSite(sample, func(s *webgen.Site) bool { return s.Flags.CDNSplit })
	if s == nil {
		t.Skip("no CDN-split site in sample")
	}
	rep, err := CheckSite(in, w, s, GuardStrict)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[Functionality] != Major {
		t.Fatalf("CDN-split under strict = %v, want major (fbcdn.net case)", rep.Results[Functionality])
	}
	rep2, err := CheckSite(in, w, s, GuardWhitelist)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Results[Functionality] != Major {
		// whitelist repaired it (unless the site also has a broken ad slot)
		if s.Flags.AdSlot && rep2.Results[Functionality] == Minor {
			return
		}
	}
	if rep2.Results[Functionality] == Major {
		t.Fatalf("CDN-split under whitelist = %v, want repaired", rep2.Results[Functionality])
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w, sample := buildWeb(t, 700)
	in := w.BuildInternet()
	strict, _, err := Evaluate(in, w, sample, GuardStrict, artifact.New())
	if err != nil {
		t.Fatal(err)
	}
	whitelist, _, err := Evaluate(in, w, sample, GuardWhitelist, artifact.New())
	if err != nil {
		t.Fatal(err)
	}
	// Table 3 shape: nav/appearance 0%; SSO major ≈ 11% under strict;
	// whitelist reduces SSO major to ≈ 3%.
	if strict.Pct[Navigation][Major] != 0 || strict.Pct[Appearance][Major] != 0 {
		t.Errorf("navigation/appearance should never break: %+v", strict.Pct)
	}
	ssoStrict := strict.Pct[SSO][Major]
	if ssoStrict < 4 || ssoStrict > 20 {
		t.Errorf("strict SSO major = %.1f%%, want ≈ 11%%", ssoStrict)
	}
	ssoWL := whitelist.Pct[SSO][Major]
	if ssoWL >= ssoStrict {
		t.Errorf("whitelist must reduce SSO breakage: %.1f%% -> %.1f%%", ssoStrict, ssoWL)
	}
	if ssoWL > 8 {
		t.Errorf("whitelist SSO major = %.1f%%, want ≈ 3%%", ssoWL)
	}
}

// TestAnyPctCountsSites: Table3.AnyPct is the share of sites whose
// report has any category at minor or worse, one count per site however
// many categories broke.
func TestAnyPctCountsSites(t *testing.T) {
	w, sample := buildWeb(t, 400)
	in := w.BuildInternet()
	for _, cond := range []Condition{NoGuard, GuardStrict, GuardWhitelist} {
		table, reports, err := Evaluate(in, w, sample, cond, artifact.New())
		if err != nil {
			t.Fatal(err)
		}
		broken := 0
		for _, rep := range reports {
			for _, sev := range rep.Results {
				if sev != None {
					broken++
					break
				}
			}
		}
		if want := 100 * float64(broken) / float64(len(sample)); table.AnyPct != want {
			t.Errorf("%s: AnyPct = %.1f%%, want %.1f%% (%d of %d sites)", cond, table.AnyPct, want, broken, len(sample))
		}
		if cond == GuardStrict && broken == 0 {
			t.Errorf("strict guard broke no site in a %d-site sample", len(sample))
		}
	}
}
