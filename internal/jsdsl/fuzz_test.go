package jsdsl_test

import (
	"slices"
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/webgen"
)

// docCookieRecorder passes cookie operations through, keeping every
// distinct document.cookie string the page's scripts read.
type docCookieRecorder struct {
	browser.CookieAPI
	seen map[string]bool
}

func (r *docCookieRecorder) GetDocumentCookie(ctx browser.AccessContext) string {
	s := r.CookieAPI.GetDocumentCookie(ctx)
	r.seen[s] = true
	return s
}

// generatedDocCookies visits a few generated sites and returns the
// document.cookie strings their scripts read, sorted.
func generatedDocCookies(t testing.TB) []string {
	w := webgen.Build(webgen.DefaultConfig(12))
	in := w.BuildInternet()
	seen := map[string]bool{}
	for _, s := range w.Sites {
		b, err := browser.New(browser.Options{
			Internet: in,
			Seed:     uint64(s.Rank),
			CookieMiddleware: []browser.CookieMiddleware{func(next browser.CookieAPI) browser.CookieAPI {
				return &docCookieRecorder{CookieAPI: next, seen: seen}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Visit(s.URL) // incomplete sites fail by design; their reads still count
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// renderCookieString renders parsed pairs back into document.cookie form.
func renderCookieString(names []string, values map[string]string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(values[n])
	}
	return sb.String()
}

// FuzzParseCookieString checks the document.cookie parser the
// interpreter and the guard's read filter share: it never panics, the
// parsed names are unique and all valued, rendering the pairs and
// parsing again gives the same pairs, and parsing into dirty reused
// buffers gives the same pairs as parsing into fresh ones.
func FuzzParseCookieString(f *testing.F) {
	seeds := generatedDocCookies(f)
	if len(seeds) < 2 {
		f.Fatalf("generated web yielded %d document.cookie strings", len(seeds))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range []string{"", ";", "a=1; a=2", " a = 1 ; b=x=y", "=v; bare; c=", "a=1;;b=2;"} {
		f.Add(s)
	}
	dirtyNames := []string{"stale"}
	dirtyVals := map[string]string{"stale": "x"}
	f.Fuzz(func(t *testing.T, s string) {
		names, values := jsdsl.ParseCookieString(s)
		// Every name valued and as many values as names: the names are
		// unique.
		if len(values) != len(names) {
			t.Fatalf("ParseCookieString(%q): %d names, %d values", s, len(names), len(values))
		}
		for _, n := range names {
			if _, ok := values[n]; !ok {
				t.Fatalf("ParseCookieString(%q): name %q has no value", s, n)
			}
		}
		rendered := renderCookieString(names, values)
		names2, values2 := jsdsl.ParseCookieString(rendered)
		if !slices.Equal(names, names2) || renderCookieString(names2, values2) != rendered {
			t.Fatalf("ParseCookieString(%q) does not round-trip: %q reparses to %q", s, rendered, renderCookieString(names2, values2))
		}
		dirtyNames, dirtyVals = jsdsl.ParseCookieStringInto(s, dirtyNames[:0], dirtyVals)
		if !slices.Equal(names, dirtyNames) || renderCookieString(dirtyNames, dirtyVals) != rendered || len(dirtyVals) != len(values) {
			t.Fatalf("ParseCookieStringInto(%q) with reused buffers differs from a fresh parse", s)
		}
	})
}
