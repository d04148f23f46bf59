// Package guard implements CookieGuard, the paper's defense (§6): runtime
// isolation of first-party cookies on a per-script-domain basis.
//
// The architecture mirrors the browser extension's three components
// (§6.2, Figure 4):
//
//   - Background — the metadata store mapping each first-party cookie to
//     the eTLD+1 of its creator (first creator wins), updated on every
//     creation event from both JavaScript APIs and HTTP Set-Cookie
//     headers. It is a map inside Guard, read and written in place under
//     the Guard's lock;
//   - ContentRelay — the messaging hop between page world and background
//     (contentScript.js), crossed once per cookie operation. Its cost is
//     modelled only in virtual time: each operation charges
//     Policy.PerOpOverheadMS to the browser clock, and no real message
//     is sent;
//   - PageWrapper — the wrapped document.cookie / cookieStore surface
//     (cookieGuard.js), installed as browser.CookieMiddleware.
//
// Policy (§6.1): a script reads only the cookies its own eTLD+1 created;
// scripts from the visited site's domain retain full access (owner
// full-access); inline scripts are denied in Strict mode or treated as
// first-party in Relaxed mode; an optional entity whitelist groups
// same-owner domains (e.g. facebook.com/fbcdn.net), the refinement that
// reduces breakage from 11% to 3% (§7.2).
package guard

import (
	"strings"
	"sync"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/entity"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/urlutil"
	"cookieguard/internal/vclock"
)

// InlineMode selects how unattributable inline scripts are treated.
type InlineMode int

// Inline-script handling modes (§6.1).
const (
	// InlineStrict denies inline scripts all cookie access
	// (safe-by-default; used in the paper's evaluation).
	InlineStrict InlineMode = iota
	// InlineRelaxed treats inline scripts as first-party.
	InlineRelaxed
)

// Policy configures enforcement.
type Policy struct {
	// Inline selects strict or relaxed inline-script handling.
	Inline InlineMode
	// OwnerFullAccess grants scripts from the visited site's own
	// domain access to every first-party cookie (§6.1). The paper's
	// deployment enables this to avoid breaking site functionality.
	OwnerFullAccess bool
	// Entities, when non-nil, groups domains of the same owner: a
	// script may access cookies created by any domain of its entity,
	// and site ownership extends to the site's entity (§7.2 whitelist).
	Entities *entity.Map
	// PerOpOverheadMS is the virtual cost of one page↔background
	// message round trip, charged to the browser clock when bound
	// (drives the Table 4 overhead measurements).
	PerOpOverheadMS float64
}

// DefaultPolicy is the configuration evaluated in the paper: strict
// inline handling, owner full access, no whitelist. The per-op overhead
// models the synchronous page↔content-script↔background message round
// trip of the extension, which dominates its measured slowdown (§7.3).
func DefaultPolicy() Policy {
	return Policy{Inline: InlineStrict, OwnerFullAccess: true, PerOpOverheadMS: 1.8}
}

// WhitelistPolicy is DefaultPolicy plus the entity whitelist.
func WhitelistPolicy(m *entity.Map) Policy {
	p := DefaultPolicy()
	p.Entities = m
	return p
}

// BlockKind classifies a blocked or filtered operation.
type BlockKind string

// Block kinds.
const (
	BlockRead   BlockKind = "read-filtered"
	BlockWrite  BlockKind = "write-blocked"
	BlockDelete BlockKind = "delete-blocked"
	BlockInline BlockKind = "inline-denied"
)

// BlockEvent records one enforcement decision.
type BlockEvent struct {
	Kind     BlockKind
	Name     string // affected cookie ("" for full-jar reads)
	Accessor string // eTLD+1 of the acting script
	Creator  string // recorded creator of the cookie
}

// Guard is one CookieGuard instance, scoped to one page visit (matching
// the extension's per-tab state).
type Guard struct {
	policy Policy
	clock  *vclock.Clock

	mu sync.Mutex
	// creators is the Background dataset: cookie name → creator eTLD+1.
	creators map[string]string
	blocks   []BlockEvent
	// document.cookie filter buffers, reused across reads.
	names  []string
	values map[string]string
	buf    []byte
}

// New creates a Guard with the given policy.
func New(policy Policy) *Guard {
	return &Guard{policy: policy, creators: map[string]string{}}
}

// Middleware returns the PageWrapper: the cookie-API interceptor.
func (g *Guard) Middleware() browser.CookieMiddleware {
	return func(next browser.CookieAPI) browser.CookieAPI {
		return &pageWrapper{g: g, next: next}
	}
}

// AttachBrowser wires the guard to a browser: it observes HTTP Set-Cookie
// events (background.js's webRequest hook) and binds the clock for
// overhead accounting.
func (g *Guard) AttachBrowser(b *browser.Browser) {
	g.clock = b.Clock()
	b.Jar().Observe(func(ch cookiejar.Change) {
		if ch.Source != cookiejar.SourceHTTP || ch.Cookie.HttpOnly {
			return
		}
		if ch.Kind == cookiejar.ChangeCreated {
			g.claim(ch.Cookie.Name, urlutil.RegistrableDomain("https://"+ch.Host+"/"))
		}
	})
}

// Blocks returns the enforcement log.
func (g *Guard) Blocks() []BlockEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]BlockEvent, len(g.blocks))
	copy(out, g.blocks)
	return out
}

// claim records creator for name unless the cookie already has one
// (first creator wins, matching the extension's dataset semantics) and
// returns the creator recorded before the call.
func (g *Guard) claim(name, creator string) (prev string, exists bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev, exists = g.creators[name]
	if !exists {
		g.creators[name] = creator
	}
	return prev, exists
}

// creator returns name's recorded creator.
func (g *Guard) creator(name string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.creators[name]
	return c, ok
}

func (g *Guard) logBlock(ev BlockEvent) {
	g.mu.Lock()
	g.blocks = append(g.blocks, ev)
	g.mu.Unlock()
}

func (g *Guard) chargeOverhead() {
	if g.clock != nil && g.policy.PerOpOverheadMS > 0 {
		g.clock.AdvanceMillis(g.policy.PerOpOverheadMS)
	}
}

// accessor resolves the acting principal's domain; ok=false means access
// is denied outright (strict inline).
func (g *Guard) accessor(ctx browser.AccessContext) (domain string, ok bool) {
	if ctx.Inline || (ctx.ScriptURL == "" && ctx.Inline) {
		if g.policy.Inline == InlineStrict {
			return "", false
		}
		return ctx.PageDomain(), true
	}
	if ctx.ScriptURL == "" {
		// Page-level code (no script): the site itself.
		return ctx.PageDomain(), true
	}
	return ctx.ScriptDomain(), true
}

// isSiteOwner reports whether domain is the visited site (or its entity,
// under the whitelist).
func (g *Guard) isSiteOwner(domain, siteDomain string) bool {
	if !g.policy.OwnerFullAccess {
		return false
	}
	if domain == siteDomain {
		return true
	}
	return g.policy.Entities != nil && g.policy.Entities.SameEntity(domain, siteDomain)
}

// mayAccess reports whether accessor may touch a cookie created by
// creator on site.
func (g *Guard) mayAccess(accessor, creator, site string) bool {
	if g.isSiteOwner(accessor, site) {
		return true
	}
	if creator == "" {
		// Unattributed cookie (predates the guard or set by denied
		// inline code): owned by the site.
		return g.isSiteOwner(accessor, site) || accessor == site
	}
	if accessor == creator {
		return true
	}
	return g.policy.Entities != nil && g.policy.Entities.SameEntity(accessor, creator)
}

// --- PageWrapper (cookieGuard.js) ----------------------------------------

type pageWrapper struct {
	g    *Guard
	next browser.CookieAPI
}

func (p *pageWrapper) GetDocumentCookie(ctx browser.AccessContext) string {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return ""
	}
	raw := p.next.GetDocumentCookie(ctx)
	site := ctx.PageDomain()
	if g.isSiteOwner(accessor, site) {
		return raw
	}
	return g.filterDocumentCookie(raw, accessor, site)
}

// filterDocumentCookie keeps the pairs of raw that accessor may read,
// rendered "name=value" and joined by "; " in first-occurrence order
// (the last value of a repeated name wins). The parse and the rendering
// reuse the Guard's buffers, so only the returned string is allocated,
// and not even that when nothing is dropped or rewritten.
func (g *Guard) filterDocumentCookie(raw, accessor, site string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.names, g.values = jsdsl.ParseCookieStringInto(raw, g.names[:0], g.values)
	buf := g.buf[:0]
	filtered := false
	for _, n := range g.names {
		if !g.mayAccess(accessor, g.creators[n], site) {
			filtered = true
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, "; "...)
		}
		buf = append(buf, n...)
		buf = append(buf, '=')
		buf = append(buf, g.values[n]...)
	}
	g.buf = buf
	if filtered {
		g.blocks = append(g.blocks, BlockEvent{Kind: BlockRead, Accessor: accessor})
	}
	if string(buf) == raw {
		return raw
	}
	return string(buf)
}

func (p *pageWrapper) SetDocumentCookie(ctx browser.AccessContext, assignment string) {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return
	}
	name := assignmentName(assignment)
	if name == "" {
		return
	}
	site := ctx.PageDomain()
	creator, exists := g.claim(name, accessor)
	if !exists {
		// Creation: the accessor is now the creator; pass through.
		p.next.SetDocumentCookie(ctx, assignment)
		return
	}
	if g.mayAccess(accessor, creator, site) {
		p.next.SetDocumentCookie(ctx, assignment)
		return
	}
	kind := BlockWrite
	if isDeletion(assignment) {
		kind = BlockDelete
	}
	g.logBlock(BlockEvent{Kind: kind, Name: name, Accessor: accessor, Creator: creator})
}

func (p *pageWrapper) StoreGet(ctx browser.AccessContext, name string) (jsdsl.CookieRecord, bool) {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return jsdsl.CookieRecord{}, false
	}
	site := ctx.PageDomain()
	if !g.isSiteOwner(accessor, site) {
		if creator, _ := g.creator(name); !g.mayAccess(accessor, creator, site) {
			g.logBlock(BlockEvent{Kind: BlockRead, Name: name, Accessor: accessor, Creator: creator})
			return jsdsl.CookieRecord{}, false
		}
	}
	return p.next.StoreGet(ctx, name)
}

func (p *pageWrapper) StoreGetAll(ctx browser.AccessContext) []jsdsl.CookieRecord {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return nil
	}
	all := p.next.StoreGetAll(ctx)
	site := ctx.PageDomain()
	if g.isSiteOwner(accessor, site) {
		return all
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var kept []jsdsl.CookieRecord
	filtered := false
	for _, rec := range all {
		if g.mayAccess(accessor, g.creators[rec.Name], site) {
			kept = append(kept, rec)
		} else {
			filtered = true
		}
	}
	if filtered {
		g.blocks = append(g.blocks, BlockEvent{Kind: BlockRead, Accessor: accessor})
	}
	return kept
}

func (p *pageWrapper) StoreSet(ctx browser.AccessContext, rec jsdsl.CookieRecord) {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return
	}
	site := ctx.PageDomain()
	creator, exists := g.claim(rec.Name, accessor)
	if !exists {
		p.next.StoreSet(ctx, rec)
		return
	}
	if g.mayAccess(accessor, creator, site) {
		p.next.StoreSet(ctx, rec)
		return
	}
	g.logBlock(BlockEvent{Kind: BlockWrite, Name: rec.Name, Accessor: accessor, Creator: creator})
}

func (p *pageWrapper) StoreDelete(ctx browser.AccessContext, name string) {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return
	}
	site := ctx.PageDomain()
	creator, exists := g.creator(name)
	if exists && !g.mayAccess(accessor, creator, site) {
		g.logBlock(BlockEvent{Kind: BlockDelete, Name: name, Accessor: accessor, Creator: creator})
		return
	}
	p.next.StoreDelete(ctx, name)
}

// assignmentName extracts the cookie name from an assignment string.
func assignmentName(assignment string) string {
	nv := assignment
	if i := strings.IndexByte(nv, ';'); i >= 0 {
		nv = nv[:i]
	}
	eq := strings.IndexByte(nv, '=')
	if eq <= 0 {
		return ""
	}
	return strings.TrimSpace(nv[:eq])
}

// isDeletion reports whether an assignment is the expire-now idiom.
func isDeletion(assignment string) bool {
	low := strings.ToLower(assignment)
	idx := strings.Index(low, "max-age")
	if idx < 0 {
		return false
	}
	rest := strings.TrimLeft(low[idx+len("max-age"):], " =")
	if end := strings.IndexByte(rest, ';'); end >= 0 {
		rest = rest[:end]
	}
	rest = strings.TrimSpace(rest)
	return rest == "0" || strings.HasPrefix(rest, "-")
}
