// SSO breakage demonstrates Table 3's central finding: strict CookieGuard
// breaks two-domain single sign-on (the identity provider's session
// script cannot read the token its login script set from another domain),
// and the entity whitelist repairs it when both domains belong to the
// same provider.
package main

import (
	"fmt"
	"log"
	"net/http"

	"cookieguard/internal/browser"
	"cookieguard/internal/entity"
	"cookieguard/internal/guard"
	"cookieguard/internal/netsim"
)

func main() {
	in := netsim.New()
	in.RegisterFunc("www.meet-like.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<html><head>
<script src="https://login.idp.example/login.js"></script>
<script src="https://session.idp-live.example/session.js"></script>
</head><body><div id="login-form">Sign in</div></body></html>`)
	})
	serve := func(host, path, body string) {
		in.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, body)
		})
		_ = path
	}
	// The login domain mints the token (a ghost-written first-party
	// cookie); the session domain — same provider, different eTLD+1,
	// like microsoft.com/live.com on zoom.us — confirms it.
	serve("login.idp.example", "/login.js",
		`set_cookie("sso_token", rand_id(24), {"max_age": 3600});`)
	serve("session.idp-live.example", "/session.js", `
let tok = get_cookie("sso_token");
if (tok != null) { set_cookie("session_ok", "1", {"max_age": 3600}); }`)

	check := func(label string, pol *guard.Policy) {
		var mw []browser.CookieMiddleware
		var g *guard.Guard
		if pol != nil {
			g = guard.New(*pol)
			mw = append(mw, g.Middleware())
		}
		b, err := browser.New(browser.Options{Internet: in, CookieMiddleware: mw})
		if err != nil {
			log.Fatal(err)
		}
		if g != nil {
			g.AttachBrowser(b)
		}
		if _, err := b.Visit("https://www.meet-like.example/"); err != nil {
			log.Fatal(err)
		}
		ok := b.Jar().Get("https://www.meet-like.example/", "session_ok") != nil
		status := "BROKEN (user cannot sign in)"
		if ok {
			status = "works"
		}
		fmt.Printf("  %-28s SSO %s\n", label, status)
	}

	fmt.Println("== two-domain SSO under three conditions ==")
	check("no guard:", nil)

	strict := guard.DefaultPolicy()
	check("CookieGuard (strict):", &strict)

	// The whitelist groups the provider's two domains into one entity —
	// the refinement that cut breakage from 11% to 3% in the paper.
	wl := guard.WhitelistPolicy(entity.NewMap(map[string][]string{
		"IdP Co": {"idp.example", "idp-live.example"},
	}))
	check("CookieGuard + whitelist:", &wl)
}
