// Package cookieguard is the public API of the CookieGuard reproduction:
// a full-system implementation of "CookieGuard: Characterizing and
// Isolating the First-Party Cookie Jar" (IMC 2025) in pure Go.
//
// The package bundles three layers:
//
//   - a synthetic web plus browser-engine substrate (generated sites,
//     in-memory network fabric, SiteScript interpreter, RFC 6265 jar);
//   - the measurement pipeline of the paper's §4–5 (instrumented crawl,
//     cross-domain cookie analysis, exfiltration detection);
//   - the CookieGuard defense of §6–7 (per-script-domain cookie
//     isolation) with its breakage and performance evaluations.
//
// The API is a streaming, composable pipeline: crawl and analysis run in
// one pass, so memory stays O(workers) instead of O(sites). A minimal
// end-to-end run:
//
//	p := cookieguard.New(cookieguard.WithSites(500), cookieguard.WithInteract(true))
//	results, _ := p.Run(context.Background())
//	fmt.Println(results.Summary.SitesComplete)
//
// For custom per-log processing, consume the stream directly:
//
//	logs, errs := p.Stream(context.Background())
//	for v := range logs {
//		fmt.Println(v.Site, len(v.Cookies))
//	}
//	if err := <-errs; err != nil { ... }
package cookieguard

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cookieguard/internal/analysis"
	"cookieguard/internal/artifact"
	"cookieguard/internal/breakage"
	"cookieguard/internal/browser"
	"cookieguard/internal/contenthash"
	"cookieguard/internal/crawler"
	"cookieguard/internal/entity"
	"cookieguard/internal/filterlist"
	"cookieguard/internal/guard"
	"cookieguard/internal/instrument"
	"cookieguard/internal/journal"
	"cookieguard/internal/netsim"
	"cookieguard/internal/perf"
	"cookieguard/internal/resultstore"
	"cookieguard/internal/shard"
	"cookieguard/internal/trancolist"
	"cookieguard/internal/webgen"
)

// Re-exported core types, so downstream users work with one import path.
type (
	// Web is a generated synthetic web universe.
	Web = webgen.Web
	// Site is one generated website.
	Site = webgen.Site
	// Internet is the in-memory network fabric.
	Internet = netsim.Internet
	// Browser is the virtual browser.
	Browser = browser.Browser
	// Page is a loaded page.
	Page = browser.Page
	// VisitLog is the per-site measurement record.
	VisitLog = instrument.VisitLog
	// CookieMiddleware wraps the browser's cookie API for one visit.
	CookieMiddleware = browser.CookieMiddleware
	// Analyzer is the incremental analysis engine (Observe/Finalize).
	Analyzer = analysis.Analyzer
	// ShardedAnalyzer fans analysis out over contention-free per-worker
	// shards with a deterministic merge (Pipeline.NewShardedAnalyzer).
	ShardedAnalyzer = analysis.Sharded
	// ResultStore is the versioned snapshot store behind
	// cookieguard.Server (Pipeline.ResultStore).
	ResultStore = resultstore.Store
	// ResultSnapshot is one published analysis version.
	ResultSnapshot = resultstore.Snapshot
	// ResultProgress is the crawl-progress stamp on a published snapshot.
	ResultProgress = resultstore.Progress
	// CacheStats is a snapshot of the artifact cache's per-tier hit/miss
	// counters (see Pipeline.CacheStats).
	CacheStats = artifact.Stats
	// PoolStats is a snapshot of the per-visit object pools' reuse
	// counters (see Pipeline.PoolStats).
	PoolStats = browser.PoolStats
	// ProgressStats is the live-counter payload delivered to
	// WithProgressStats callbacks after every completed visit.
	ProgressStats = crawler.ProgressStats
	// FaultConfig parameterizes the fabric's seeded fault injection
	// (WithFaults).
	FaultConfig = netsim.FaultConfig
	// RetryPolicy bounds transient-fault retries per fetch
	// (WithRetryPolicy).
	RetryPolicy = browser.RetryPolicy
	// Vantage is a named crawl origin: a region with its own latency
	// model and fault rates (WithVantages).
	Vantage = netsim.Vantage
	// Frontier is the crawl scheduler's queue abstraction
	// (WithScheduler).
	Frontier = crawler.Frontier
	// Breaker configures per-host circuit breaking (WithBreaker).
	Breaker = crawler.Breaker
	// SchedSnapshot is a plain-value copy of the scheduler counters
	// (Pipeline.SchedStats): visit virtual time, circuit-breaker
	// sheds/probes, second-pass volume.
	SchedSnapshot = crawler.SchedSnapshot
	// VantageStats is one vantage point's retention and latency-tail
	// rollup (Results.Vantages).
	VantageStats = analysis.VantageStats
	// PersonaStats is one consent persona's retention and tracking-delta
	// rollup (Results.Personas).
	PersonaStats = analysis.PersonaStats
	// FailureStats is the analysis rollup of the crawl failure taxonomy
	// (Results.Failures).
	FailureStats = analysis.FailureStats
	// Results is the aggregated analysis output.
	Results = analysis.Results
	// JournalStats is a snapshot of the checkpoint journal's counters
	// (Pipeline.CheckpointStats): units loaded/replayed on resume,
	// records/snapshots/bytes appended, fsync batches flushed.
	JournalStats = journal.Stats
	// Guard is a CookieGuard enforcement instance.
	Guard = guard.Guard
	// Policy configures CookieGuard enforcement.
	Policy = guard.Policy
	// EntityMap groups domains by owning entity.
	EntityMap = entity.Map
)

// Pipeline owns a generated web and the streaming measurement pipeline
// over it. Construct one with New; zero values are not usable.
type Pipeline struct {
	cfg config

	// Web is the generated synthetic web universe.
	Web *Web
	// Net is the in-memory network fabric serving Web.
	Net *Internet

	// artifacts is the pipeline-lifetime content-addressed cache: the
	// web is static, so compiled programs, DOM templates, and response
	// bodies are shared across every crawl, worker, and evaluation this
	// pipeline runs. Nil when disabled via WithArtifactCache(false).
	artifacts *artifact.Cache

	// sched accumulates scheduler counters across every crawl this
	// pipeline runs (all vantages share it, like the artifact cache).
	sched *crawler.SchedStats

	// store holds the versioned analysis snapshots cookieguard.Server
	// reads; built lazily by ResultStore (one per pipeline lifetime).
	store     *resultstore.Store
	storeOnce sync.Once

	// serve tracks the WithServer listener: bound once per pipeline, it
	// serves for the remainder of the process so results stay queryable
	// after Run returns — until Shutdown drains it.
	serveOnce sync.Once
	serveErr  error
	servedOn  string
	srvMu     sync.Mutex
	srv       *http.Server

	// jnl is the WithCheckpoint write-ahead journal, opened once on the
	// first crawl (resume happens there: an existing journal's units are
	// loaded for replay).
	jnlOnce sync.Once
	jnl     *journal.Journal
	jnlErr  error

	// shardMu guards the sharded-crawl state: the per-shard live views
	// behind ShardStats (in-process driver) and the sibling-journal
	// tailer of a WithShardWorker process (closed by Shutdown).
	shardMu   sync.Mutex
	shardLive []shardLive
	shardTail *shard.JournalExchange
}

// ErrCrashInjected is the abort cause of a crawl killed by the
// WithCrashAfterUnits harness (matched with errors.Is through whatever
// wrapping the pipeline adds).
var ErrCrashInjected = crawler.ErrCrashInjected

// New generates a synthetic web and returns the pipeline over it,
// configured by functional options:
//
//	p := cookieguard.New(
//		cookieguard.WithSites(2000),
//		cookieguard.WithWorkers(16),
//		cookieguard.WithInteract(true),
//		cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()),
//	)
func New(opts ...Option) *Pipeline {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	gen := webgen.DefaultConfig(cfg.sites)
	if cfg.seed != 0 {
		gen.Seed = cfg.seed
	}
	gen.Flakiness = cfg.faults
	// Personas act on consent banners, so they imply the CMP web.
	gen.CMP = cfg.cmp || len(cfg.personas) > 0
	w := webgen.Build(gen)
	p := &Pipeline{cfg: cfg, Web: w, Net: w.BuildInternet(), sched: &crawler.SchedStats{}}
	if !cfg.noArtifacts {
		p.artifacts = artifact.New()
		// The generated web serves static bytes per URL, so the fabric
		// can memoize whole responses in the same cache.
		p.Net.SetResponseCache(p.artifacts)
	}
	return p
}

// CacheStats returns a snapshot of the artifact cache's per-tier
// hit/miss counters (all zero when the cache is disabled). A long crawl
// should show hit rates approaching 1 on every tier; persistent misses
// mean the workload has little cross-visit redundancy.
//
// Safe to call at any time, including concurrently with a running
// crawl: the counters are atomics and the snapshot is a consistent-
// enough point-in-time read for live dashboards (individual tiers are
// loaded independently, so a snapshot taken mid-visit may be a few
// lookups apart across tiers, never torn within one). cookieguard.Server
// reads it live on /v1/stats.
func (p *Pipeline) CacheStats() CacheStats {
	if p.artifacts == nil {
		return CacheStats{}
	}
	return p.artifacts.Stats()
}

// PoolStats returns a snapshot of the per-visit object pools' reuse
// counters (pages, interpreters, DOM arenas). The counters are
// process-wide and monotonic; on a long pooled crawl the reuse rate
// (PoolStats.ReuseRate) should approach 1.
func (p *Pipeline) PoolStats() PoolStats {
	return browser.CollectPoolStats()
}

// SiteList returns the pipeline's ranked site list (Tranco analogue).
func (p *Pipeline) SiteList() []trancolist.Entry {
	entries := make([]trancolist.Entry, len(p.Web.Sites))
	for i, site := range p.Web.Sites {
		entries[i] = trancolist.Entry{Rank: site.Rank, Domain: site.Domain}
	}
	return entries
}

// ensureJournal opens the WithCheckpoint journal on first use (resume
// happens here: an existing journal's units load for replay) and
// returns it; (nil, nil) when checkpointing is off. Idempotent — later
// calls return the first outcome.
func (p *Pipeline) ensureJournal() (*journal.Journal, error) {
	if p.cfg.checkpointDir == "" {
		return nil, nil
	}
	if p.cfg.shards > 1 {
		// The in-process shard driver opens one journal per shard under
		// <dir>/shard-<i>; the base directory holds no journal of its own.
		return nil, nil
	}
	p.jnlOnce.Do(func() {
		p.jnl, p.jnlErr = journal.Open(p.cfg.checkpointDir, p.checkpointFingerprint())
	})
	return p.jnl, p.jnlErr
}

// checkpointFingerprint digests every configuration knob that changes
// the crawl's emitted bytes, so a journal is only ever resumed under
// the configuration that wrote it. Knobs the determinism contract
// makes byte-invisible are deliberately excluded — the worker count,
// pooling, the artifact cache — which is exactly what lets a crawl
// resume at a different worker count. Vantage latency models are
// functions and likewise excluded (latency shifts virtual timing
// deterministically from the vantage name's seed, which is covered). A sharded crawl's journals
// additionally carry their shard coordinate ("i/n"), so a shard
// journal only resumes as the same shard of the same split — see
// Pipeline.fingerprint.
func (p *Pipeline) checkpointFingerprint() string {
	if w := p.cfg.shardWorker; w != nil {
		return p.fingerprint(fmt.Sprintf("%d/%d", w.index, w.count))
	}
	return p.fingerprint("")
}

// fingerprint digests the byte-affecting configuration plus an
// optional shard coordinate (see checkpointFingerprint for what is
// covered and why).
func (p *Pipeline) fingerprint(shardLabel string) string {
	type vant struct {
		Name   string             `json:"name"`
		Faults netsim.FaultConfig `json:"faults"`
	}
	vants := make([]vant, 0, len(p.cfg.vantages))
	for _, v := range p.cfg.vantages {
		vants = append(vants, vant{Name: v.Name, Faults: v.Faults})
	}
	fp := struct {
		Version     int                 `json:"version"`
		Sites       int                 `json:"sites"`
		Seed        uint64              `json:"seed"`
		Interact    bool                `json:"interact"`
		Guard       *guard.Policy       `json:"guard,omitempty"`
		Middleware  int                 `json:"middleware,omitempty"`
		Faults      *netsim.FaultConfig `json:"faults,omitempty"`
		Retry       RetryPolicy         `json:"retry"`
		VisitBudget float64             `json:"visit_budget"`
		Scheduler   bool                `json:"custom_scheduler,omitempty"`
		SecondPass  bool                `json:"second_pass"`
		Breaker     Breaker             `json:"breaker"`
		Autopilot   bool                `json:"autopilot"`
		Vantages    []vant              `json:"vantages,omitempty"`
		Personas    []string            `json:"personas,omitempty"`
		CMP         bool                `json:"cmp"`
		Shard       string              `json:"shard,omitempty"`
	}{
		Version:     1,
		Sites:       p.cfg.sites,
		Seed:        p.cfg.seed,
		Interact:    p.cfg.interact,
		Guard:       p.cfg.guard,
		Middleware:  len(p.cfg.middleware),
		Faults:      p.cfg.faults,
		Retry:       p.cfg.retry,
		VisitBudget: p.cfg.visitBudget,
		Scheduler:   p.cfg.scheduler != nil,
		SecondPass:  p.cfg.secondPass,
		Breaker:     p.cfg.breaker,
		Autopilot:   p.cfg.autopilot,
		Vantages:    vants,
		Personas:    p.cfg.personas,
		CMP:         p.cfg.cmp,
		Shard:       shardLabel,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		// Every field above is marshalable by construction.
		panic("cookieguard: checkpoint fingerprint: " + err.Error())
	}
	return contenthash.Sum(string(b))
}

// CheckpointStats returns a snapshot of the checkpoint journal's
// counters — units loaded and replayed on resume, records, snapshots,
// bytes, and fsync batches appended — and whether checkpointing is
// active (false without WithCheckpoint, or if the journal failed to
// open).
func (p *Pipeline) CheckpointStats() (JournalStats, bool) {
	jnl, err := p.ensureJournal()
	if jnl == nil || err != nil {
		return JournalStats{}, false
	}
	return jnl.Stats(), true
}

// errStream is the degenerate stream of a crawl that failed before
// starting: closed log channel, one error.
func errStream(err error) (<-chan VisitLog, <-chan error) {
	out := make(chan VisitLog)
	close(out)
	errc := make(chan error, 1)
	errc <- err
	close(errc)
	return out, errc
}

// crawlOptions assembles the crawler configuration over every
// configured vantage, composing the guard (innermost, enforcing) with
// registered middleware factories. p.jnl must be resolved
// (ensureJournal) before any crawl options are built.
func (p *Pipeline) crawlOptions() crawler.Options {
	opts := crawler.Options{
		Internet:             p.Net,
		Workers:              p.cfg.workers,
		Interact:             p.cfg.interact,
		Seed:                 p.cfg.seed,
		Retry:                p.cfg.retry,
		VisitBudgetMs:        p.cfg.visitBudget,
		Progress:             p.cfg.progress,
		ProgressStats:        p.cfg.progressStats,
		Artifacts:            p.artifacts,
		DisableArtifactCache: p.cfg.noArtifacts,
		DisablePooling:       p.cfg.noPooling,
		Scheduler:            p.cfg.scheduler,
		Breaker:              p.cfg.breaker,
		SecondPass:           crawler.SecondPass{Enabled: p.cfg.secondPass},
		Vantages:             p.Vantages(),
		Personas:             p.cfg.personas,
		Stats:                p.sched,
		Journal:              p.jnl,
		CrashAfterUnits:      p.cfg.crashAfter,
	}
	if p.cfg.autopilot {
		// WithBreakerAutopilot implies the breaker, whatever the option
		// order; WithBreaker's round size and reference cooldown apply.
		opts.Breaker.Enabled = true
		opts.Breaker.Autopilot = true
	}
	pol := p.cfg.guard
	factories := p.cfg.middleware
	if pol != nil || len(factories) > 0 {
		opts.PerVisit = func() ([]browser.CookieMiddleware, func(*browser.Browser)) {
			// Middleware wraps innermost first. The crawler's recorder is
			// already innermost; user middleware goes next so it observes
			// the post-enforcement operations the measurement logs; the
			// guard wraps outermost, filtering before anything records.
			var mw []browser.CookieMiddleware
			var attach func(*browser.Browser)
			for _, f := range factories {
				mw = append(mw, f())
			}
			if pol != nil {
				g := guard.New(*pol)
				mw = append(mw, g.Middleware())
				attach = func(b *browser.Browser) { g.AttachBrowser(b) }
			}
			return mw, attach
		}
	}
	return opts
}

// Vantages returns the pipeline's configured vantage points; with none
// configured, the single implicit default vantage.
func (p *Pipeline) Vantages() []Vantage {
	if len(p.cfg.vantages) == 0 {
		return []Vantage{{}}
	}
	return append([]Vantage(nil), p.cfg.vantages...)
}

// Personas returns the pipeline's configured consent personas; empty
// means the single implicit persona-free crawl.
func (p *Pipeline) Personas() []string {
	return append([]string(nil), p.cfg.personas...)
}

// unitsPerVantage is how many crawl-plan units each (site, vantage)
// pair expands to: the persona count, minimum 1.
func (p *Pipeline) unitsPerVantage() int {
	if n := len(p.cfg.personas); n > 0 {
		return n
	}
	return 1
}

// SchedStats returns a snapshot of the scheduler counters accumulated
// over every crawl this pipeline has run: visit virtual time,
// circuit-breaker shed/probe activity, and second-pass volume. All
// zero unless WithBreaker/WithSecondPass (or a breaker-enabled crawl)
// produced any.
//
// Safe to call at any time, including concurrently with a running
// crawl: every counter is an atomic and the snapshot is a plain-value
// copy, so mid-run reads observe monotonically advancing totals (as on
// cookieguard.Server's /v1/stats), not just the end-of-run state.
// During (and after) an in-process sharded crawl the snapshot is the
// crawl-wide merge of the per-shard counters: owned-work counters sum,
// replicated circuit counters take the shard maximum (every shard runs
// the same lane state machines) — see internal/shard.MergeSched.
func (p *Pipeline) SchedStats() SchedSnapshot {
	p.shardMu.Lock()
	snaps := make([]crawler.SchedSnapshot, 0, len(p.shardLive))
	for i := range p.shardLive {
		if st := p.shardLive[i].stats; st != nil {
			snaps = append(snaps, st.Snapshot())
		}
	}
	p.shardMu.Unlock()
	if len(snaps) > 0 {
		return shard.MergeSched(snaps)
	}
	return p.sched.Snapshot()
}

// Stream runs the instrumented measurement crawl (§4) and delivers
// visit logs incrementally, in completion order, as each visit finishes.
// The log channel is bounded by the worker count, so a slow consumer
// backpressures the crawl; cancelling the context stops the crawl
// mid-stream. Both channels close when the crawl ends; the error channel
// yields at most one error.
//
// With WithVantages configured, the stream visits every site once per
// vantage point over one frozen web and one artifact cache, each log
// tagged with its vantage name; WithPersonas multiplies the plan again
// (one unit per (site, vantage, persona), each log tagged Persona).
// Every unit flows through one worker pool — one scheduling lane per
// (vantage, persona) cell — so vantages interleave in completion order,
// and Progress/ProgressStats callbacks report one monotonic done out of
// sites × vantages × personas.
func (p *Pipeline) Stream(ctx context.Context) (<-chan VisitLog, <-chan error) {
	if p.cfg.shardWorker != nil {
		return p.streamShardWorker(ctx)
	}
	if p.cfg.shards > 1 {
		return p.streamSharded(ctx)
	}
	if _, err := p.ensureJournal(); err != nil {
		return errStream(err)
	}
	return crawler.Stream(ctx, crawler.SiteURLs(trancolist.Domains(p.SiteList())), p.crawlOptions())
}

// Crawl runs the measurement crawl over every site and materializes all
// logs, in ranked-site order (with WithVantages and WithPersonas, one
// ranked-order block per (vantage, persona) lane, vantage-major in
// configuration order). It is a batch wrapper over the streaming core —
// memory scales with the unit count, so prefer Run or Stream for large
// workloads.
func (p *Pipeline) Crawl(ctx context.Context) ([]VisitLog, error) {
	if p.cfg.shardWorker != nil {
		return p.crawlShardWorker(ctx)
	}
	if p.cfg.shards > 1 {
		return p.crawlSharded(ctx)
	}
	if _, err := p.ensureJournal(); err != nil {
		return nil, err
	}
	res, err := crawler.Crawl(ctx, crawler.SiteURLs(trancolist.Domains(p.SiteList())), p.crawlOptions())
	if err != nil {
		return nil, err
	}
	return res.Logs, nil
}

// Run executes the full pipeline — crawl (§4) plus analysis (§4.4) — in
// a single streaming pass: every visit log is folded into the analyzer
// as soon as its visit finishes and is dropped afterwards, so at most
// O(workers) logs are resident regardless of the site count.
//
// With WithServer or WithSnapshotEvery configured, Run additionally
// publishes versioned snapshots into ResultStore() as the crawl
// advances (analysis then fans out over contention-free shards — one
// per worker — merged deterministically, so the returned Results are
// byte-identical to an unserved run) and, under WithServer, binds the
// HTTP server before crawling; a bind failure fails the run. The final
// snapshot published at finalize is the exact Results value Run
// returns.
func (p *Pipeline) Run(ctx context.Context) (*Results, error) {
	if p.cfg.serveAddr != "" {
		if _, err := p.StartServer(p.cfg.serveAddr); err != nil {
			return nil, err
		}
	}
	if p.serving() {
		return p.runServed(ctx)
	}
	an := p.NewAnalyzer()
	logs, errs := p.Stream(ctx)
	for v := range logs {
		an.Observe(v)
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	return an.Finalize(), nil
}

// serving reports whether Run should publish snapshots (and therefore
// analyze on the sharded path).
func (p *Pipeline) serving() bool {
	return p.cfg.serveAddr != "" || p.cfg.snapEvery > 0
}

// defaultSnapshotEvery is the publish cadence (in observed visits) when
// WithSnapshotEvery is unset.
const defaultSnapshotEvery = 64

// runServed is Run's publishing variant: visit logs fan out to one
// analyzer shard per observer goroutine (Observe never contends across
// shards), and every K observed visits one observer folds a copy of the
// shards into an immutable Results snapshot and publishes it — blocked
// /v1 pollers wake on each publish. The finalize-time publish is the
// exact Results returned, marked Progress.Final.
func (p *Pipeline) runServed(ctx context.Context) (*Results, error) {
	store := p.ResultStore()
	every := p.cfg.snapEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	shards := p.cfg.workers
	if shards < 1 {
		shards = 1
	}
	sh := p.NewShardedAnalyzer(shards)
	total := len(p.Web.Sites) * len(p.Vantages()) * p.unitsPerVantage()

	logs, errs := p.Stream(ctx)
	var (
		observed atomic.Int64
		pubMu    sync.Mutex // snapshots are merged one at a time
		wg       sync.WaitGroup
	)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for v := range logs {
				sh.Observe(shard, v)
				if n := observed.Add(1); n%int64(every) == 0 {
					pubMu.Lock()
					snap := sh.Snapshot()
					store.Publish(resultstore.Progress{Done: int(n), Total: total}, snap)
					pubMu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if err := <-errs; err != nil {
		return nil, err
	}
	res := sh.Finalize()
	store.Publish(resultstore.Progress{
		Done: int(observed.Load()), Total: total, Final: true,
	}, res)
	return res, nil
}

// ResultStore returns the pipeline's versioned snapshot store (created
// on first use). Run feeds it when serving is enabled; embedded
// consumers may also Publish into it directly — cookieguard.Server
// serves whatever the store holds.
func (p *Pipeline) ResultStore() *resultstore.Store {
	p.storeOnce.Do(func() { p.store = resultstore.New() })
	return p.store
}

// StartServer binds addr and serves this pipeline's result store (see
// the Server doc) for the remainder of the process — or until Shutdown
// drains it. It returns the bound address (useful with ":0") and is
// idempotent: the first call binds, later calls return the first
// outcome. Run calls it with the WithServer address; call it directly
// to serve without Run or on a second address.
//
// The server is a real http.Server, not a bare Serve loop: slow
// clients cannot park in header reads forever (ReadHeaderTimeout) or
// hold idle keep-alives indefinitely (IdleTimeout), and Shutdown can
// drain in-flight requests. There is deliberately no WriteTimeout —
// blocking queries legitimately hold their response open for the full
// `?wait` duration.
func (p *Pipeline) StartServer(addr string) (string, error) {
	p.serveOnce.Do(func() {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			p.serveErr = err
			return
		}
		p.servedOn = ln.Addr().String()
		srv := &http.Server{
			Handler:           p.NewServer(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		p.srvMu.Lock()
		p.srv = srv
		p.srvMu.Unlock()
		go srv.Serve(ln)
	})
	return p.servedOn, p.serveErr
}

// Shutdown gracefully winds the pipeline's serving side down: it
// releases every long-poll parked in the result store's blocking
// queries (each returns its current snapshot, as a timed-out poll
// would), drains the StartServer HTTP server via http.Server.Shutdown
// — in-flight requests complete, new connections are refused — and
// flushes any buffered checkpoint-journal appends to disk. ctx bounds
// the drain; an expired ctx abandons remaining connections and returns
// its error. Safe to call whether or not a server was started, and
// more than once. Shutdown does not cancel a running crawl — cancel
// the crawl's context for that (the crawl's own defers flush the final
// journal snapshot); call Shutdown after the crawl has stopped.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	p.ResultStore().Close()
	p.srvMu.Lock()
	srv := p.srv
	p.srvMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if jnl, _ := p.ensureJournal(); jnl != nil {
		if serr := jnl.Sync(); serr != nil && err == nil && serr != journal.ErrCrashInjected {
			err = serr
		}
	}
	p.shardMu.Lock()
	tail := p.shardTail
	p.shardTail = nil
	p.shardMu.Unlock()
	if tail != nil {
		tail.Close()
	}
	return err
}

// NewAnalyzer returns an incremental analyzer wired to this pipeline's
// entity map and tracker classifier. Feed it with Observe per visit log
// and collect the aggregate with Finalize.
func (p *Pipeline) NewAnalyzer() *Analyzer {
	an := analysis.New()
	p.configureAnalyzer(an)
	return an
}

// NewShardedAnalyzer returns an n-shard analyzer wired like NewAnalyzer
// (each shard gets its own tracker classifier, so shards share no
// mutable state). Feed shard i with Observe(i, log) from worker i and
// collect the merged aggregate with Finalize — byte-identical to a
// single analyzer over the same logs.
func (p *Pipeline) NewShardedAnalyzer(n int) *ShardedAnalyzer {
	return analysis.NewSharded(n, p.configureAnalyzer)
}

// configureAnalyzer wires one analyzer (or analyzer shard) to the
// pipeline's entity map and a fresh tracker classifier.
func (p *Pipeline) configureAnalyzer(an *Analyzer) {
	clf := filterlist.DefaultClassifier()
	an.Entities = p.Web.Entities
	an.IsTracker = func(scriptURL, siteDomain string) bool {
		ok, _ := clf.IsTracker(filterlist.Request{
			URL: scriptURL, SiteDomain: siteDomain, Type: filterlist.TypeScript,
		})
		return ok
	}
}

// Analyze runs the §4.4 analysis framework over already-materialized
// visit logs, retaining only complete visits. It is the batch form of
// NewAnalyzer().Observe/Finalize and produces identical Results for the
// same log sequence.
func (p *Pipeline) Analyze(logs []VisitLog) *Results {
	return p.NewAnalyzer().Run(logs)
}

// EvaluateBreakage runs the Table 3 assessment over a sample of n sites.
// It shares the pipeline's artifact cache (honouring WithArtifactCache).
func (p *Pipeline) EvaluateBreakage(n int, cond breakage.Condition) (breakage.Table3, error) {
	sample := breakage.Sample(p.Web, n)
	t, _, err := breakage.Evaluate(p.Net, p.Web, sample, cond, p.artifacts)
	return t, err
}

// EvaluatePerformance runs the §7.3 paired timing measurement over up to
// n complete sites, sharing the pipeline's artifact cache (honouring
// WithArtifactCache).
func (p *Pipeline) EvaluatePerformance(n int) (*perf.Results, error) {
	sites := p.Web.CompleteSites()
	if n > 0 && n < len(sites) {
		sites = sites[:n]
	}
	return perf.Run(p.Net, p.Web, sites, p.artifacts)
}

// NewGuard constructs a CookieGuard instance with the paper's default
// policy (strict inline handling, owner full access).
func NewGuard() *Guard { return guard.New(guard.DefaultPolicy()) }

// NewGuardWithWhitelist constructs a CookieGuard using the pipeline's
// entity map as the breakage-reducing whitelist (§7.2).
func (p *Pipeline) NewGuardWithWhitelist() *Guard {
	return guard.New(guard.WhitelistPolicy(p.Web.Entities))
}

// DefaultGuardPolicy exposes the paper's evaluated policy.
func DefaultGuardPolicy() Policy { return guard.DefaultPolicy() }

// UniformFaults spreads an overall per-attempt fault rate across the
// fault mix in fixed proportions (see netsim.UniformFaults). It is the
// one-knob config for WithFaults and cmd/experiments -faults.
func UniformFaults(rate float64, seed uint64) FaultConfig {
	return netsim.UniformFaults(rate, seed)
}

// DefaultRetryPolicy is three attempts with jittered exponential backoff
// on the virtual clock (see browser.DefaultRetryPolicy).
func DefaultRetryPolicy() RetryPolicy { return browser.DefaultRetryPolicy() }

// NewFIFOFrontier is the default scheduler frontier: visits pop in
// input order, second-pass requeues afterwards (see WithScheduler).
func NewFIFOFrontier() Frontier { return crawler.NewFIFOFrontier() }

// NewShuffleFrontier pops the visit set in a seeded random permutation
// (see WithScheduler); requeues still pop after the primary set drains.
func NewShuffleFrontier(seed uint64) Frontier { return crawler.NewShuffleFrontier(seed) }

// RegionVantage is the convenience constructor for WithVantages: a
// named vantage with the region's derived latency model and, when rate
// is non-zero, a region-seeded uniform fault mix — so two regions crawl
// the same web at different distances with independent fault schedules.
func RegionVantage(name string, rate float64, seed uint64) Vantage {
	v := Vantage{Name: name}
	if rate > 0 {
		v.Faults = netsim.UniformFaults(rate, netsim.RegionSeed(seed, name))
	}
	return v
}

// WhitelistGuardPolicy exposes the whitelist-augmented policy.
func WhitelistGuardPolicy(m *EntityMap) Policy { return guard.WhitelistPolicy(m) }
