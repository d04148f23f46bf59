package webgen

import (
	"strconv"
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/stats"
)

func TestBuildDeterministic(t *testing.T) {
	a := Build(DefaultConfig(50))
	b := Build(DefaultConfig(50))
	if len(a.Sites) != len(b.Sites) {
		t.Fatal("site counts differ")
	}
	for i := range a.Sites {
		if a.Sites[i].Domain != b.Sites[i].Domain {
			t.Fatalf("site %d domain differs", i)
		}
		if a.Sites[i].Flags != b.Sites[i].Flags {
			t.Fatalf("site %d flags differ", i)
		}
		if len(a.Sites[i].DirectServices) != len(b.Sites[i].DirectServices) {
			t.Fatalf("site %d services differ", i)
		}
	}
}

func TestAllServiceSourcesParse(t *testing.T) {
	w := Build(DefaultConfig(10))
	for _, svc := range w.Services {
		if _, err := jsdsl.Parse(svc.Source); err != nil {
			t.Errorf("service %s source does not parse: %v\nsource:\n%s", svc.Name, err, svc.Source)
		}
	}
}

func TestGeneratedSiteScriptsParse(t *testing.T) {
	w := Build(DefaultConfig(40))
	tm := findService(w, "googletagmanager")
	for _, s := range w.Sites {
		if _, err := jsdsl.Parse(fpScript(s)); err != nil {
			t.Fatalf("site %s app.js: %v", s.Domain, err)
		}
		if s.HasTagManager {
			if _, err := jsdsl.Parse(containerScript(s, tm)); err != nil {
				t.Fatalf("site %s container: %v", s.Domain, err)
			}
		}
		if s.Flags.CDNSplit {
			if _, err := jsdsl.Parse(cdnChatScript(s)); err != nil {
				t.Fatalf("site %s chat.js: %v", s.Domain, err)
			}
		}
	}
	for _, pair := range Build(DefaultConfig(1)).IdPs {
		if _, err := jsdsl.Parse(idpLoginScript(pair, false)); err != nil {
			t.Fatal(err)
		}
		if _, err := jsdsl.Parse(idpLoginScript(pair, true)); err != nil {
			t.Fatal(err)
		}
		if _, err := jsdsl.Parse(idpSessionScript(pair)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jsdsl.Parse(refresherScript); err != nil {
		t.Fatal(err)
	}
	if _, err := jsdsl.Parse(inlineSnippet); err != nil {
		t.Fatal(err)
	}
}

func TestPopulationStatistics(t *testing.T) {
	cfg := DefaultConfig(2000)
	w := Build(cfg)

	var complete, hasTP, exfil, overwrite, del, cs int
	for _, s := range w.Sites {
		if s.Flags.Complete {
			complete++
		}
		if s.Flags.HasTP {
			hasTP++
		}
		if s.Flags.Exfil {
			exfil++
		}
		if s.Flags.Overwrite {
			overwrite++
		}
		if s.Flags.Delete {
			del++
		}
		if s.Flags.CookieStore {
			cs++
		}
	}
	n := float64(len(w.Sites))
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
		}
	}
	within("complete", float64(complete)/n, cfg.PComplete, 0.03)
	within("hasTP", float64(hasTP)/n, cfg.PThirdParty, 0.03)
	within("exfil", float64(exfil)/n, cfg.PExfilSite*cfg.PThirdParty, 0.04)
	within("overwrite", float64(overwrite)/n, cfg.POverwriteSite*cfg.PThirdParty, 0.04)
	within("delete", float64(del)/n, cfg.PDeleteSite*cfg.PThirdParty, 0.02)
	within("cookieStore", float64(cs)/n, cfg.PCookieStoreSite, 0.01)
}

func TestMeanThirdPartyScripts(t *testing.T) {
	w := Build(DefaultConfig(1500))
	var total, sites int
	for _, s := range w.Sites {
		if !s.Flags.HasTP {
			continue
		}
		sites++
		total += len(s.DirectServices) + len(s.InjectedServices)
	}
	mean := float64(total) / float64(sites)
	if mean < 12 || mean > 26 {
		t.Fatalf("mean third-party scripts per site = %.1f, want ≈ 19", mean)
	}
}

func TestIndirectDirectRatio(t *testing.T) {
	w := Build(DefaultConfig(1500))
	var direct, indirect int
	for _, s := range w.Sites {
		direct += len(s.DirectServices)
		indirect += len(s.InjectedServices)
	}
	// Plan-level ratio runs higher than the paper's 2.5 because the
	// measured ratio also counts the always-direct GTM base library and
	// per-site container scripts, pulling it back down to ≈ 2.5.
	ratio := float64(indirect) / float64(direct)
	if ratio < 2.0 || ratio > 5.0 {
		t.Fatalf("indirect:direct plan ratio = %.2f, want within [2, 5]", ratio)
	}
}

func TestEntitiesIncludeCDNSplitPairs(t *testing.T) {
	w := Build(DefaultConfig(300))
	var found bool
	for _, s := range w.Sites {
		if s.Flags.CDNSplit {
			found = true
			if !w.Entities.SameEntity(s.Domain, cdnDomain(s)) {
				t.Fatalf("site %s and its CDN %s must share an entity", s.Domain, cdnDomain(s))
			}
		}
	}
	if !found {
		t.Skip("no CDN-split site in sample")
	}
}

func TestVisitGeneratedSites(t *testing.T) {
	w := Build(DefaultConfig(30))
	in := w.BuildInternet()

	visited := 0
	for _, s := range w.CompleteSites() {
		if visited >= 10 {
			break
		}
		visited++
		b, err := browser.New(browser.Options{Internet: in, Seed: uint64(s.Rank)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Visit(s.URL)
		if err != nil {
			t.Fatalf("visit %s: %v", s.URL, err)
		}
		for _, se := range p.Scripts {
			if se.Err != nil {
				t.Errorf("site %s script %q failed: %v", s.Domain, se.URL, se.Err)
			}
		}
		if s.Flags.HasTP && len(p.Scripts) < 2 {
			t.Errorf("site %s: only %d scripts ran", s.Domain, len(p.Scripts))
		}
		if p.Doc.ByID("status") == nil || p.Doc.ByID("status").InnerText() != "ready" {
			t.Errorf("site %s: first-party script did not run", s.Domain)
		}
	}
	if visited == 0 {
		t.Fatal("no complete sites generated")
	}
}

func TestIncompleteSiteFailsToLoad(t *testing.T) {
	w := Build(DefaultConfig(60))
	in := w.BuildInternet()
	var incomplete *Site
	for _, s := range w.Sites {
		if !s.Flags.Complete {
			incomplete = s
			break
		}
	}
	if incomplete == nil {
		t.Skip("no incomplete site in sample")
	}
	b, _ := browser.New(browser.Options{Internet: in})
	if _, err := b.Visit(incomplete.URL); err == nil {
		t.Fatal("incomplete site should fail to load")
	}
}

func TestSSOSiteLoginFlow(t *testing.T) {
	cfg := DefaultConfig(200)
	w := Build(cfg)
	in := w.BuildInternet()

	var ssoSite *Site
	for _, s := range w.CompleteSites() {
		if s.Flags.SSO == "same-entity" || s.Flags.SSO == "cross-entity" {
			ssoSite = s
			break
		}
	}
	if ssoSite == nil {
		t.Skip("no two-domain SSO site in sample")
	}
	b, _ := browser.New(browser.Options{Internet: in})
	p, err := b.Visit("https://" + ssoSite.Host + "/login")
	if err != nil {
		t.Fatal(err)
	}
	// Without a guard, the cross-domain session confirmation succeeds.
	if p.Doc.ByID("sso-ok") == nil {
		t.Fatal("SSO flow did not complete without guard")
	}
	if b.Jar().Get(p.URL, "session_ok") == nil {
		t.Fatal("session_ok cookie missing")
	}
}

func TestCloakedSite(t *testing.T) {
	cfg := DefaultConfig(400)
	w := Build(cfg)
	in := w.BuildInternet()
	var cloaked *Site
	for _, s := range w.CompleteSites() {
		if s.Flags.Cloaked {
			cloaked = s
			break
		}
	}
	if cloaked == nil {
		t.Skip("no cloaked site in sample")
	}
	alias := "metrics." + cloaked.Domain
	if !in.IsCloaked(alias) {
		t.Fatal("alias not registered as CNAME")
	}
	b, _ := browser.New(browser.Options{Internet: in})
	p, err := b.Visit(cloaked.URL)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, se := range p.Scripts {
		if se.URL == CloakedScriptURL(cloaked) {
			found = true
			if se.Err != nil {
				t.Fatalf("cloaked script failed: %v", se.Err)
			}
		}
	}
	if !found {
		t.Fatal("cloaked script did not execute")
	}
}

func TestServiceKindStringAndTracking(t *testing.T) {
	if KindRTB.String() != "rtb" || KindWidget.String() != "widget" {
		t.Fatal("kind strings wrong")
	}
	if KindWidget.Tracking() || KindCDNLib.Tracking() || KindPerfSDK.Tracking() {
		t.Fatal("functional kinds must not be tracking")
	}
	if !KindRTB.Tracking() || !KindDeleter.Tracking() {
		t.Fatal("tracker kinds must be tracking")
	}
}

func TestHexIDDeterministic(t *testing.T) {
	if hexID("x", 16) != hexID("x", 16) {
		t.Fatal("hexID not deterministic")
	}
	if hexID("x", 16) == hexID("y", 16) {
		t.Fatal("hexID collision on different labels")
	}
	if len(hexID("x", 20)) != 20 {
		t.Fatal("hexID length wrong")
	}
}

func TestSafeIdent(t *testing.T) {
	if safeIdent("_ga") != "_ga" || safeIdent("a-b.c") != "axbxc" {
		t.Fatalf("safeIdent = %q, %q", safeIdent("_ga"), safeIdent("a-b.c"))
	}
}

func TestZipfHeadPopularity(t *testing.T) {
	// Named services (low ranks) should appear on far more sites than
	// the long tail, giving Figure 2's skew.
	w := Build(DefaultConfig(500))
	counts := map[string]int{}
	for _, s := range w.Sites {
		for _, svc := range append(append([]*Service{}, s.DirectServices...), s.InjectedServices...) {
			counts[svc.Name]++
		}
	}
	if counts["google-analytics"] < counts["longtail-trk-0100"] {
		t.Fatalf("popularity skew missing: ga=%d longtail=%d",
			counts["google-analytics"], counts["longtail-trk-0100"])
	}
}

func TestConfigZeroSitesDefaults(t *testing.T) {
	w := Build(Config{Seed: 1})
	if len(w.Sites) != 100 {
		t.Fatalf("default NumSites = %d", len(w.Sites))
	}
}

var sinkWeb *Web

func BenchmarkBuild1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkWeb = Build(DefaultConfig(1000))
	}
}

func TestStatsRandIsolated(t *testing.T) {
	// Site generation uses forked streams: site N's flags do not change
	// when NumSites grows.
	small := Build(DefaultConfig(20))
	large := Build(DefaultConfig(40))
	for i := 0; i < 20; i++ {
		if small.Sites[i].Flags != large.Sites[i].Flags {
			t.Fatalf("site %d flags depend on population size", i)
		}
	}
	_ = stats.NewRand(0) // keep import
}

func TestWriteQuotedMatchesStrconv(t *testing.T) {
	w := Build(DefaultConfig(20))
	inputs := []string{"", "a", `say "hi"`, `back\slash`, "tab\there", "new\nline", "naïve", "\x7f", "\xff", "~ !"}
	for _, svc := range w.Services {
		inputs = append(inputs, svc.URL())
	}
	for _, s := range inputs {
		var b strings.Builder
		writeQuoted(&b, s)
		if want := strconv.Quote(s); b.String() != want {
			t.Fatalf("writeQuoted(%q) = %s, want %s", s, b.String(), want)
		}
	}
}
