package main

import (
	"sync/atomic"
	"time"

	"cookieguard"
	"cookieguard/internal/artifact"
	"cookieguard/internal/browser"
	"cookieguard/internal/instrument"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/webgen"
)

// jarShim is a pass-through cookie middleware that counts and times
// every call into the layers below it (the recorder and the jar).
type jarShim struct{ ops, ns atomic.Int64 }

func (j *jarShim) factory() cookieguard.CookieMiddleware {
	return func(next browser.CookieAPI) browser.CookieAPI { return &timedAPI{next: next, s: j} }
}

func (j *jarShim) done(t time.Time) {
	j.ns.Add(int64(time.Since(t)))
	j.ops.Add(1)
}

type timedAPI struct {
	next browser.CookieAPI
	s    *jarShim
}

func (a *timedAPI) GetDocumentCookie(ctx browser.AccessContext) string {
	defer a.s.done(time.Now())
	return a.next.GetDocumentCookie(ctx)
}

func (a *timedAPI) SetDocumentCookie(ctx browser.AccessContext, assignment string) {
	defer a.s.done(time.Now())
	a.next.SetDocumentCookie(ctx, assignment)
}

func (a *timedAPI) StoreGet(ctx browser.AccessContext, name string) (jsdsl.CookieRecord, bool) {
	defer a.s.done(time.Now())
	return a.next.StoreGet(ctx, name)
}

func (a *timedAPI) StoreGetAll(ctx browser.AccessContext) []jsdsl.CookieRecord {
	defer a.s.done(time.Now())
	return a.next.StoreGetAll(ctx)
}

func (a *timedAPI) StoreSet(ctx browser.AccessContext, rec jsdsl.CookieRecord) {
	defer a.s.done(time.Now())
	a.next.StoreSet(ctx, rec)
}

func (a *timedAPI) StoreDelete(ctx browser.AccessContext, name string) {
	defer a.s.done(time.Now())
	a.next.StoreDelete(ctx, name)
}

// timeBuilds times the two halves of New separately: generating the web
// and building its network fabric, from the config New used.
func (b *bench) timeBuilds(cfg webgen.Config, parent int) {
	s := b.tr.start("webgen.build", parent)
	w := webgen.Build(cfg)
	b.tr.end(s)
	s = b.tr.start("netsim.build", parent)
	w.BuildInternet()
	b.tr.end(s)
}

// replaySample is how many sites the per-visit replay loads.
const replaySample = 24

// replayVisits loads a fixed sample of the pipeline's sites (the first
// replaySample by rank, landing page only) through browser.New, Visit,
// Recorder.BuildVisitLog and Release, under spans.
func (b *bench) replayVisits(p *cookieguard.Pipeline, parent int) {
	cache := artifact.New()
	sites := p.Web.Sites
	if len(sites) > replaySample {
		sites = sites[:replaySample]
	}
	for i, site := range sites {
		url := "https://www." + site.Domain + "/"
		b.replayVisit(p, cache, site.Domain, url, b.seed^uint64(i+1)*0x9e3779b97f4a7c15, parent)
	}
}

// replayVisit loads one landing page.
func (b *bench) replayVisit(p *cookieguard.Pipeline, cache *artifact.Cache, site, url string, seed uint64, parent int) {
	tr := b.tr
	unit := tr.start("replay.unit", parent)
	defer tr.end(unit)
	vs := tr.start("browser.visit", unit)
	defer tr.end(vs)
	rec := instrument.NewRecorder()
	br, err := browser.New(browser.Options{
		Internet: p.Net, CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()}, Seed: seed, Artifacts: cache, Pooling: true,
	})
	if err != nil {
		b.fail("replay %s: %v", site, err)
		return
	}
	defer br.Release()
	rec.ObserveJar(br.Jar())
	page, err := br.Visit(url)
	bl := tr.start("instrument.build_log", vs)
	rec.BuildVisitLog(site, []*browser.Page{page}, err)
	tr.end(bl)
}
