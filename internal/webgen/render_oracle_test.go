package webgen

import (
	"fmt"
	"strings"
	"testing"
)

// The fmt-based renderers below are the reference the pre-quoted
// renderers must reproduce byte for byte.

func oracleContainerScript(s *Site, tm *Service) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s container for %s\n", tm.Name, s.Domain)
	for _, svc := range s.InjectedServices {
		fmt.Fprintf(&b, "inject(%q);\n", svc.URL())
	}
	if s.Flags.Exfil {
		b.WriteString(`let tags = [];
`)
		targets := append([]string{}, tm.Targets...)
		if s.Rank%3 == 0 {
			targets = append(targets, "fp_client_id")
		}
		for _, tgt := range targets {
			id := safeIdent(tgt)
			fmt.Fprintf(&b, "let c_%s = get_cookie(%q);\n", id, tgt)
			fmt.Fprintf(&b, "if (c_%s != null && len(c_%s) >= 8) { push(tags, %q + \":\" + c_%s); }\n", id, id, tgt, id)
		}
		fmt.Fprintf(&b, "if (len(tags) > 0) {\n")
		for _, p := range tm.Partners {
			fmt.Fprintf(&b, "  send(%q, {\"t\": join(tags, \"|\"), \"u\": page_url()});\n",
				"https://"+p+"/container")
		}
		fmt.Fprintf(&b, "}\n")
	}
	return b.String()
}

func oracleLandingHTML(w *Web, s *Site) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head>\n<title>%s</title>\n", s.Domain)
	b.WriteString("<link rel=\"stylesheet\" href=\"/style.css\">\n")
	b.WriteString("<script src=\"/assets/app.js\"></script>\n")
	if len(s.Consent) > 0 {
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
	if s.Rank%3 == 0 {
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

func oracleCMPLoaderScript(s *Site) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// consent loader for %s: %d gated trackers\n", s.Domain, len(s.Consent))
	injectAll := func(indent string) {
		for _, t := range s.Consent {
			if t.Async {
				fmt.Fprintf(&b, "%sdefer_run(fn() { inject(%q); });\n", indent, t.ScriptURL)
			} else {
				fmt.Fprintf(&b, "%sinject(%q);\n", indent, t.ScriptURL)
			}
		}
	}
	fmt.Fprintf(&b, "let consent = get_cookie(%q);\n", ConsentCookie)
	b.WriteString(`if (consent == "granted") {` + "\n")
	injectAll("  ")
	b.WriteString("  dom_remove(\"cmp-banner\");\n}\n")
	b.WriteString(`if (consent == "denied") {
  dom_remove("cmp-banner");
}
`)
	b.WriteString("if (consent == null) {\n")
	b.WriteString("  dom_set_style(\"cmp-banner\", \"display\", \"block\");\n")
	b.WriteString("  on_click_id(\"cmp-accept\", fn() {\n")
	fmt.Fprintf(&b, "    set_cookie(%q, \"granted\", {\"max_age\": 31536000});\n", ConsentCookie)
	injectAll("    ")
	b.WriteString("    dom_remove(\"cmp-banner\");\n  });\n")
	b.WriteString("  on_click_id(\"cmp-reject\", fn() {\n")
	fmt.Fprintf(&b, "    set_cookie(%q, \"denied\", {\"max_age\": 31536000});\n", ConsentCookie)
	b.WriteString("    dom_remove(\"cmp-banner\");\n  });\n")
	b.WriteString("  on_click_id(\"cmp-dismiss\", fn() {\n")
	b.WriteString("    dom_set_style(\"cmp-banner\", \"display\", \"none\");\n  });\n")
	b.WriteString("}\n")
	return b.String()
}

// TestRenderersMatchOracle: for every site of three 3,000-site CMP webs,
// the tag-manager container, the landing page and the consent loader
// equal the fmt-based renderers' output.
func TestRenderersMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 3,000-site webs")
	}
	for _, seed := range []uint64{1, 2, 3} {
		cfg := DefaultConfig(3000)
		cfg.Seed = seed
		cfg.CMP = true
		w := Build(cfg)
		tm := findService(w, "googletagmanager")
		r := newRenderer(w)
		var containers, loaders int
		for _, s := range w.Sites {
			if s.HasTagManager {
				containers++
				if got, want := r.containerScript(s), oracleContainerScript(s, tm); got != want {
					t.Fatalf("seed %d %s container:\n%s\nwant:\n%s", seed, s.Domain, got, want)
				}
			}
			if got, want := r.landingHTML(s), oracleLandingHTML(w, s); got != want {
				t.Fatalf("seed %d %s landing page:\n%s\nwant:\n%s", seed, s.Domain, got, want)
			}
			if len(s.Consent) > 0 {
				loaders++
				if got, want := cmpLoaderScript(s), oracleCMPLoaderScript(s); got != want {
					t.Fatalf("seed %d %s consent loader:\n%s\nwant:\n%s", seed, s.Domain, got, want)
				}
			}
		}
		if containers == 0 || loaders == 0 {
			t.Fatalf("seed %d compared %d containers and %d loaders", seed, containers, loaders)
		}
	}
}

// TestContainerScriptOneAlloc: a container render is one allocation,
// the script's own bytes.
func TestContainerScriptOneAlloc(t *testing.T) {
	w := Build(DefaultConfig(300))
	r := newRenderer(w)
	var s *Site
	for _, c := range w.Sites {
		if c.HasTagManager && c.Flags.Exfil && len(c.InjectedServices) > 1 {
			s = c
			break
		}
	}
	if s == nil {
		t.Fatal("no exfiltrating tag-manager site with injected services")
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.containerScript(s) }); n != 1 {
		t.Fatalf("containerScript allocates %v times, want 1", n)
	}
}
