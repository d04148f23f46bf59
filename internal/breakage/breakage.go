// Package breakage reproduces the paper's manual website-breakage
// assessment (§7.2, Table 3): for a sample of sites it checks navigation,
// SSO, appearance, and other functionality under three conditions — no
// guard, strict CookieGuard, and CookieGuard with the entity whitelist —
// and classifies each as working, minor, or major breakage.
//
// The synthetic sites carry functionality manifests (SSO mode, ad slots,
// CDN-split widgets) whose checks are mechanical versions of the paper's
// evaluator instructions.
package breakage

import (
	"fmt"

	"cookieguard/internal/artifact"
	"cookieguard/internal/browser"
	"cookieguard/internal/guard"
	"cookieguard/internal/netsim"
	"cookieguard/internal/stats"
	"cookieguard/internal/webgen"
)

// Condition is the browser configuration under test.
type Condition int

// Evaluation conditions.
const (
	NoGuard Condition = iota
	GuardStrict
	GuardWhitelist
)

func (c Condition) String() string {
	switch c {
	case NoGuard:
		return "no-guard"
	case GuardStrict:
		return "cookieguard"
	case GuardWhitelist:
		return "cookieguard+whitelist"
	default:
		return "unknown"
	}
}

// Category is a breakage category from Table 3.
type Category string

// Breakage categories.
const (
	Navigation    Category = "navigation"
	SSO           Category = "sso"
	Appearance    Category = "appearance"
	Functionality Category = "functionality"
)

// Severity grades breakage.
type Severity int

// Severities.
const (
	None Severity = iota
	Minor
	Major
)

func (s Severity) String() string {
	switch s {
	case Minor:
		return "minor"
	case Major:
		return "major"
	default:
		return "none"
	}
}

// SiteReport is the per-site assessment.
type SiteReport struct {
	Site      string
	Condition Condition
	Results   map[Category]Severity
}

// CheckSite evaluates one site under one condition.
func CheckSite(in *netsim.Internet, w *webgen.Web, s *webgen.Site, cond Condition) (SiteReport, error) {
	return checkSite(in, w, s, cond, nil)
}

// checkSite is CheckSite with a shared artifact cache (Evaluate threads
// one across its whole sample; nil disables caching).
func checkSite(in *netsim.Internet, w *webgen.Web, s *webgen.Site, cond Condition, cache *artifact.Cache) (SiteReport, error) {
	rep := SiteReport{Site: s.Domain, Condition: cond, Results: map[Category]Severity{
		Navigation: None, SSO: None, Appearance: None, Functionality: None,
	}}

	var g *guard.Guard
	var mw []browser.CookieMiddleware
	switch cond {
	case GuardStrict:
		g = guard.New(guard.DefaultPolicy())
	case GuardWhitelist:
		g = guard.New(guard.WhitelistPolicy(w.Entities))
	}
	if g != nil {
		mw = append(mw, g.Middleware())
	}
	b, err := browser.New(browser.Options{Internet: in, CookieMiddleware: mw, Seed: uint64(s.Rank), Artifacts: cache})
	if err != nil {
		return rep, err
	}
	if g != nil {
		g.AttachBrowser(b)
	}

	// --- Landing + appearance ---
	landing, err := b.Visit(s.URL)
	if err != nil {
		rep.Results[Navigation] = Major
		rep.Results[Appearance] = Major
		return rep, nil
	}
	if landing.Doc.ByID("main") == nil || landing.Doc.ByID("banner") == nil {
		rep.Results[Appearance] = Major
	} else if st := landing.Doc.ByID("status"); st == nil || st.InnerText() != "ready" {
		rep.Results[Appearance] = Minor
	}

	// --- Navigation: follow an internal link ---
	if link := landing.RandomLink(); link != "" {
		if _, err := b.Visit(link); err != nil {
			rep.Results[Navigation] = Major
		}
	}

	// --- Functionality: ad slot (minor) and CDN-split widget (major) ---
	if s.Flags.AdSlot && landing.Doc.ByID("ad-creative") == nil {
		rep.Results[Functionality] = Minor
	}
	if s.Flags.CDNSplit && landing.Doc.ByID("chat-ready") == nil {
		rep.Results[Functionality] = Major
	}

	// --- SSO ---
	if s.Flags.SSO != "" {
		sev, err := checkSSO(b, s)
		if err != nil {
			return rep, err
		}
		rep.Results[SSO] = sev
	}
	return rep, nil
}

// checkSSO runs the login flow: can the user sign in, and does the
// session survive a reload (the cnn.com minor-breakage case)?
func checkSSO(b *browser.Browser, s *webgen.Site) (Severity, error) {
	loginURL := "https://" + s.Host + "/login"
	p, err := b.Visit(loginURL)
	if err != nil {
		return Major, nil
	}
	if p.Doc.ByID("sso-ok") == nil || b.Jar().Get(loginURL, "session_ok") == nil {
		return Major, nil
	}
	if s.Flags.SSO == "refresher" {
		// Reload: the session keeper must re-confirm the session.
		if _, err := b.Visit(loginURL); err != nil {
			return Minor, nil
		}
		if b.Jar().Get(loginURL, "session_fresh") == nil {
			return Minor, nil
		}
	}
	return None, nil
}

// Table3Cell aggregates one (category, severity) percentage.
type Table3 struct {
	Condition Condition
	Sites     int
	// Pct[category][severity] in percent of assessed sites.
	Pct map[Category]map[Severity]float64
}

// Evaluate assesses a sample of sites under a condition (Table 3 used a
// random sample of 100). All assessments share the given artifact cache
// (nil disables caching, parsing every byte per visit).
func Evaluate(in *netsim.Internet, w *webgen.Web, sample []*webgen.Site, cond Condition, cache *artifact.Cache) (Table3, []SiteReport, error) {
	t := Table3{Condition: cond, Sites: len(sample), Pct: map[Category]map[Severity]float64{}}
	counts := map[Category]map[Severity]int{}
	for _, cat := range []Category{Navigation, SSO, Appearance, Functionality} {
		counts[cat] = map[Severity]int{}
		t.Pct[cat] = map[Severity]float64{}
	}
	var reports []SiteReport
	for _, s := range sample {
		rep, err := checkSite(in, w, s, cond, cache)
		if err != nil {
			return t, reports, fmt.Errorf("breakage: %s: %w", s.Domain, err)
		}
		reports = append(reports, rep)
		for cat, sev := range rep.Results {
			counts[cat][sev]++
		}
	}
	for cat, m := range counts {
		for sev, c := range m {
			t.Pct[cat][sev] = stats.Percent(c, len(sample))
		}
	}
	return t, reports, nil
}

// Sample picks n complete sites deterministically (rank order) for the
// assessment, preferring feature-bearing sites the way the paper's top-10k
// sample naturally included SSO and widget-heavy pages.
func Sample(w *webgen.Web, n int) []*webgen.Site {
	complete := w.CompleteSites()
	if len(complete) <= n {
		return complete
	}
	return complete[:n]
}
