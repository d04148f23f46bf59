// Package crawler drives the measurement crawl of §4.2: it visits each
// site's landing page with an instrumented browser, performs the paper's
// light interaction (scrolling and clicking up to three random links with
// two-second pauses), and retains only visits with complete data.
//
// Visits run on a bounded worker pool; every browser gets its own virtual
// clock and cookie jar, so concurrent visits are fully isolated — the
// fabric (netsim.Internet) is the only shared component, as on the real
// web.
//
// The crawl does not assume a perfect network: when the fabric injects
// faults (netsim.SetFaultModel), Options.Retry bounds per-fetch retries
// with seeded backoff, Options.VisitBudgetMs caps each visit on the
// virtual clock, failed subresources degrade gracefully instead of
// aborting the visit, and every failure is classified into the taxonomy
// that instrument.VisitLog records and analysis rolls up. All of it is
// deterministic: a fixed seed and fault config reproduce the same
// per-site records at any worker count.
//
// Scheduling is pluggable: a Frontier decides visit order (FIFO by
// default), a consul-style per-host circuit Breaker sheds fetches and
// visits to hosts that keep failing ("circuit-open" instead of burning
// the retry budget), a fault-aware SecondPass re-crawls the transient
// failure set once the primary frontier drains, and a netsim.Vantage
// crawls the web from a named region's latency and fault models. The
// default configuration — FIFO, breaker off, second pass off, implicit
// vantage — emits records byte-identical to the fixed worker-pool loop
// it replaced.
//
// The crawl's unit of work is the crawl-plan unit (site, vantage,
// persona): Options.Vantages and Options.Personas cross into scheduling
// lanes — one lane per (vantage, persona) cell — and every lane's
// visits run through ONE worker pool. Each lane owns exactly the state
// a standalone one-lane crawl of its cell would own — its frontier,
// its round-synchronous breaker with its own virtual clock, its
// second-pass bookkeeping — and the lanes multiplex over the shared
// workers, so one region's latency tail fills with another cell's
// visits instead of idling the pool. Because a lane's rounds, gate
// snapshots, and sorted folds are untouched by the other lanes, every
// record is byte-identical to the one a one-lane crawl of its cell
// emits, at any worker count and any lane interleaving; the effective
// global fold order is (pass, site index, vantage, then persona), and
// each lane's virtual clock still advances by its own rounds' mean
// visit duration — never by wall-clock or worker count.
//
// A persona is a consent-interaction policy: before normal interaction
// the crawler clicks the consent banner element "cmp-"+persona on the
// landing page ("accept" grants, "reject" denies, "dismiss" leaves
// consent unset). Persona never salts the visit seed — persona cells
// differ only through page behaviour (the consent cookie and what the
// CMP loader gates on it), so a web without a CMP emits identical
// bytes for every persona.
package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"cookieguard/internal/artifact"
	"cookieguard/internal/browser"
	"cookieguard/internal/instrument"
	"cookieguard/internal/journal"
	"cookieguard/internal/netsim"
	"cookieguard/internal/urlutil"
	"cookieguard/internal/vclock"
)

// ErrCrashInjected is the crash-injection harness's abort cause: the
// crawl "died" at its Options.CrashAfterUnits kill-point, leaving the
// journal exactly as a real crash would.
var ErrCrashInjected = journal.ErrCrashInjected

// Options configures a crawl.
type Options struct {
	// Internet is the fabric to crawl (required).
	Internet *netsim.Internet
	// Workers bounds concurrent visits (default 8).
	Workers int
	// Interact enables the light-interaction step (§4.2).
	Interact bool
	// MaxClicks bounds the random link clicks (default 3).
	MaxClicks int
	// PerVisit, when set, is invoked once per visit and supplies extra
	// cookie middleware (innermost first) plus an optional hook called
	// with the freshly created browser (e.g. to attach a CookieGuard
	// instance's jar observer). The instrumentation recorder always
	// wraps last (outermost), observing post-enforcement behaviour.
	PerVisit func() (mw []browser.CookieMiddleware, attach func(*browser.Browser))
	// Seed differentiates browser randomness across visits.
	Seed uint64
	// Retry bounds transient-fault retries per fetch (connection resets,
	// timeouts, truncated bodies, 5xx) with seeded jittered backoff on
	// the virtual clock. The zero value disables retrying, preserving
	// historical behaviour byte for byte.
	Retry browser.RetryPolicy
	// VisitBudgetMs, when > 0, is each visit's total budget in virtual
	// milliseconds (landing load plus interaction). An exhausted budget
	// degrades gracefully: in-flight page loads stop starting new work,
	// the interaction loop ends, and the visit log is retained with its
	// partial data and a "deadline" failure mark.
	VisitBudgetMs float64
	// Progress, when set, receives (done, total) after every completed
	// visit, with total = len(sites) × number of (vantage, persona)
	// lanes: one monotonic count for the whole crawl's crawl-plan
	// units, however many lanes feed it.
	// Invocations are serialized (no two run concurrently) but arrive
	// on crawl worker goroutines; a slow callback backpressures the
	// crawl. done counts completed visits, not delivered logs: when the
	// context is cancelled mid-delivery, a finished visit's log can be
	// dropped, and the drop's Progress invocation is the only trace of
	// it — so the final done is the true number of visits performed.
	Progress func(done, total int)
	// Artifacts is the content-addressed cache shared by every worker's
	// browser (compiled scripts, DOM templates). When nil, the crawl
	// creates one per Crawl/Stream call unless DisableArtifactCache is
	// set; pass a longer-lived cache (e.g. one per pipeline) to reuse
	// compiled artifacts across repeated crawls of the same web.
	Artifacts *artifact.Cache
	// DisableArtifactCache turns artifact caching off entirely (every
	// visit re-parses every byte). Cached and uncached crawls of the
	// same web with the same seed produce byte-identical logs; this
	// switch exists for that equivalence check and for memory-ceiling
	// tuning.
	DisableArtifactCache bool
	// DisablePooling turns per-visit object pooling off (every visit
	// allocates its pages, DOM arenas, and interpreters fresh). Pooled
	// and unpooled crawls with the same seed produce byte-identical
	// logs; this switch exists for that equivalence check and as the
	// escape hatch behind cookieguard.WithPooling(false). When pooling
	// is on (the default), the worker owns the release lifecycle: it
	// calls Browser.Release after the visit log is built.
	DisablePooling bool
	// ProgressStats, when set, receives live crawl counters after every
	// completed visit: progress, fabric request/fault totals, artifact
	// cache hit/miss counters, and pool reuse counters. Invocations are
	// serialized (after Progress, under the same lock) and arrive on
	// crawl worker goroutines; a slow callback backpressures the crawl.
	ProgressStats func(ProgressStats)
	// Scheduler constructs a crawl lane's Frontier — the queue deciding
	// visit order and holding the second pass's requeues. It is invoked
	// once per vantage lane (each lane orders its own site walk). Nil
	// uses NewFIFOFrontier, which visits sites in input order and is
	// output-identical to the historical fixed dispatch loop.
	Scheduler func() Frontier
	// Breaker configures per-host circuit breaking: hosts that keep
	// failing on transient classes are shed with FailureClass
	// "circuit-open" instead of burning the retry budget, and half-open
	// probes re-admit them once OpenForMs of crawl virtual time has
	// passed. Breaker state is per (host, vantage): each lane folds its
	// own circuits on its own virtual clock. The zero value (off)
	// changes nothing.
	Breaker Breaker
	// SecondPass configures the fault-aware second pass: visits whose
	// landing failed on a transient class are re-crawled once the
	// primary frontier drains, and only the re-crawl's record is
	// emitted. Per lane, like the breaker. The zero value (off)
	// changes nothing.
	SecondPass SecondPass
	// Vantages crawls every site from every listed vantage through one
	// worker pool — one scheduling lane per vantage, each with its own
	// frontier and breaker state, so a vantage's records are
	// byte-identical to crawling that vantage alone while the pool stays
	// busy across regions. A non-default vantage crawls through
	// Internet.From(v) (its latency and fault models) and tags every
	// emitted VisitLog with v.Name; the zero Vantage crawls the fabric
	// directly. Crawl returns the logs as consecutive per-vantage blocks
	// in list order (lane-major); Stream interleaves them in completion
	// order. Empty means the single default vantage.
	Vantages []netsim.Vantage
	// Personas, when non-empty, crawls every (site, vantage) pair once
	// per listed persona, extending the crawl plan to units of (site,
	// vantage, persona). Each (vantage, persona) cell is its own
	// scheduling lane (vantage-major: all of the first vantage's
	// personas, then the next vantage's); a persona names the consent-
	// banner action the crawler clicks on the landing page before
	// normal interaction (element id "cmp-"+persona — "accept",
	// "reject", "dismiss" on CMP-enabled webs), and every emitted
	// VisitLog is tagged Persona. Personas never salt the visit seed:
	// a persona's records differ from another's only through page
	// behaviour — the consent cookie and what the CMP loader gates on
	// it. Empty means the single implicit persona-free crawl,
	// byte-identical to before personas existed.
	Personas []string
	// Stats, when set, accumulates scheduler counters (visit virtual
	// time, breaker sheds/probes, second-pass volume) across the crawl.
	// Labelled lanes (a named vantage, or any persona cell) accumulate
	// into per-unit children (SchedStats.Unit) that chain into the
	// totals. Pass one struct to several crawls to aggregate. Never
	// affects records.
	Stats *SchedStats
	// Journal, when set, makes the crawl crash-safe: every crawl-plan
	// unit that reaches a terminal outcome is appended to the
	// write-ahead journal before it is delivered (unit key, pass,
	// failure class, scheduler feedback), and every lane snapshots its
	// scheduler state at each round barrier. When the journal already
	// holds records — a previous run of the same configuration that
	// crashed or was interrupted — the crawl RESUMES: the dispatcher
	// re-runs the identical scheduling, journaled units re-execute
	// deterministically, and each re-derived outcome is VERIFIED
	// against its journaled record (ErrDiverged on mismatch — the
	// journal belongs to a different code version or was tampered
	// with). Because every layer is deterministic given (url, seed,
	// pass, vantage, persona, gate), the resumed crawl's records,
	// scheduler state, and stats are byte-identical to an uninterrupted
	// run at any worker count. The journal must have been opened with a
	// fingerprint of this same configuration (journal.Open).
	Journal *journal.Journal
	// JournalLogs additionally stores each unit's full encoded VisitLog
	// in its journal record, so resume SKIPS journaled units entirely —
	// the stored record re-delivers and the stored feedback folds at
	// the exact dispatch point, without constructing a browser or
	// touching the network fabric. That is the right trade when visits
	// are expensive (a sharded crawl re-adopting a crashed shard's
	// units); it multiplies journal volume by the record size and costs
	// roughly a visit's worth of CPU per unit in serialization, which
	// is why the compact default re-executes instead.
	JournalLogs bool
	// CrashAfterUnits, when > 0 (requires Journal), is the
	// crash-injection harness's deterministic kill-point: after that
	// many fresh units have been journaled, the journal goes dead and
	// the crawl aborts with ErrCrashInjected — no final snapshots, no
	// trailing fsync, exactly the state a real mid-crawl crash leaves
	// behind.
	CrashAfterUnits int
	// Shard, when set, restricts this crawl to the shard's owned slice
	// of the unit space while replicating the full scheduler over all
	// sites (see ShardPlan): owned units execute and deliver, foreign
	// units fold their owners' outcomes from the shard exchange, and
	// the merged output of all shards is byte-identical to the
	// unsharded crawl. Nil crawls everything.
	Shard *ShardPlan
}

// ProgressStats is the live-counter payload delivered to
// Options.ProgressStats after each completed visit. Fabric and pool
// counters are process-/fabric-lifetime totals, not deltas.
type ProgressStats struct {
	Done  int `json:"done"`
	Total int `json:"total"`
	// Requests and Faults are the fabric's exchange and injected-fault
	// totals (netsim.Internet.Requests/Faults).
	Requests int64 `json:"requests"`
	Faults   int64 `json:"faults"`
	// Cache is the artifact cache's per-tier hit/miss snapshot (zero when
	// the crawl runs uncached).
	Cache artifact.Stats `json:"cache"`
	// Pool is the per-visit object pools' reuse snapshot (zero deltas
	// when the crawl runs unpooled).
	Pool browser.PoolStats `json:"pool"`
	// Sched is the scheduler-counter snapshot (zero unless the crawl
	// was given Options.Stats).
	Sched SchedSnapshot `json:"sched"`
}

// Result is the outcome of a crawl.
type Result struct {
	Logs []instrument.VisitLog
}

// Complete returns the retained logs (the paper's completeness filter).
func (r *Result) Complete() []instrument.VisitLog {
	return instrument.FilterComplete(r.Logs)
}

// indexedLog pairs a visit log with its position in the crawl's flat
// output space (lane*len(sites)+site), so the batch wrapper can restore
// lane-major input order over the unordered stream.
type indexedLog struct {
	idx int
	log instrument.VisitLog
}

// laneState is one (vantage, persona) cell's scheduling lane. A lane
// owns exactly the state a standalone one-lane crawl of its cell
// would own — the frontier, the breaker accounting and virtual clock,
// the pass map — so its shed decisions and emitted records cannot be
// perturbed by the other lanes sharing the worker pool. All lane
// fields are owned by the dispatch goroutine; workers only read the
// immutable identity fields (vantage, persona, transport, stats,
// base).
type laneState struct {
	id        int
	vantage   netsim.Vantage    // zero value = the default vantage
	persona   string            // "" = the implicit persona-free crawl
	transport http.RoundTripper // nil = fabric directly
	stats     *SchedStats       // per-unit child when labelled; may be nil without feedback
	base      int               // flat output offset: id * len(sites)

	front  Frontier
	brk    *breakerState
	passOf map[int]int // site → pass; absent = 1
	round  []visitOutcome

	pending int  // dispatched visits without a folded outcome
	inRound bool // a breaker round is open (gate frozen, dispatching)
	barrier bool // round dispatched; waiting for pending to drain
	popped  bool // current round popped at least one visit
	sent    int  // visits dispatched into the current round
	gate    *gateSnapshot
	done    bool

	outcomes int // folded outcomes: the journal's snapshot key
	popCount int // successful frontier pops (journal observability)
	lastSnap int // outcomes count at the lane's last journaled snapshot
}

// journalSnapshotStride is how many folded outcomes a breaker lane
// accumulates between journaled snapshots. Snapshots are a coarse
// divergence check (the per-unit verify is the fine one) and each one
// exports the lane's full per-host circuit state, so snapshotting
// every barrier fold would cost O(rounds × hosts) serialization —
// ~20% of crawl throughput at 2,000 sites. The stride is a pure
// function of the fold count, so crashed and resumed runs snapshot at
// identical points.
const journalSnapshotStride = 512

// pass returns the crawl pass the next dispatch of site belongs to.
func (ln *laneState) pass(site int) int {
	if p := ln.passOf[site]; p > 0 {
		return p
	}
	return 1
}

// visitJob is one unit of dispatched work: which site, which lane
// (vantage), which crawl pass, and the lane's round gate (nil when no
// circuit is open). journaled carries the unit's compact journal
// record when this visit is a resume re-execution: the worker verifies
// the fresh outcome against it instead of appending a duplicate.
type visitJob struct {
	site      int
	pass      int
	gate      *gateSnapshot
	lane      *laneState
	journaled *journal.Record
}

// visitOutcome is a worker's terminal report to the dispatcher: whether
// the visit qualifies for the second pass, how much virtual time it
// burned, and the per-host fetch accounting the breaker folds. idx is
// the site index — the breaker's sorted fold key within a lane.
type visitOutcome struct {
	idx         int
	lane        int
	pass        int
	requeue     bool
	foreign     bool // a sibling shard's outcome, folded from the exchange
	virtualMs   float64
	shedFetches int64 // gate sheds charged to this visit (journaling runs)
	hosts       []browser.HostOutcome
}

// countingGate wraps a round's shared gate snapshot with a visit-local
// shed counter, so a journaled unit's record carries how many fetches
// the gate shed for that visit — on replay, exactly that count re-adds
// to the stats the live gate would have accumulated. One wrapper per
// visit; the count needs no synchronization.
type countingGate struct {
	inner browser.FetchGate
	shed  int64
}

func (g *countingGate) Allow(host string) bool {
	ok := g.inner.Allow(host)
	if !ok {
		g.shed++
	}
	return ok
}

// delivery owns the shared result path: the bounded indexed stream plus
// the serialized progress accounting. Both crawl workers and the
// dispatcher (shed visits) deliver through it; done is one monotonic
// count over sites × vantages.
type delivery struct {
	ctx   context.Context
	out   chan indexedLog
	opts  *Options
	total int

	mu   sync.Mutex
	done int
}

// deliver hands a finished log downstream, preferring delivery: a
// completed visit is only dropped when the context is cancelled AND the
// stream is full — never by the select's random choice while space
// remains, so a draining consumer (Crawl) retains every finished log.
// Delivered or not, the visit is accounted: a drop without the final
// serialized Progress flush would leave done silently undercounting the
// visits that actually ran (and burned fabric requests). Returns false
// when the log was dropped (the crawl is cancelled).
func (d *delivery) deliver(idx int, l instrument.VisitLog) bool {
	delivered := true
	select {
	case d.out <- indexedLog{idx: idx, log: l}:
	default:
		select {
		case d.out <- indexedLog{idx: idx, log: l}:
		case <-d.ctx.Done():
			delivered = false
		}
	}
	d.mu.Lock()
	d.done++
	if d.opts.Progress != nil {
		d.opts.Progress(d.done, d.total)
	}
	if d.opts.ProgressStats != nil {
		ps := ProgressStats{
			Done:     d.done,
			Total:    d.total,
			Requests: d.opts.Internet.Requests(),
			Faults:   d.opts.Internet.Faults(),
			Pool:     browser.CollectPoolStats(),
		}
		if d.opts.Artifacts != nil {
			ps.Cache = d.opts.Artifacts.Stats()
		}
		if d.opts.Stats != nil {
			ps.Sched = d.opts.Stats.Snapshot()
		}
		d.opts.ProgressStats(ps)
	}
	d.mu.Unlock()
	return delivered
}

// unitLabel is the stats key of a (vantage, persona) cell: the vantage
// name alone when the crawl is persona-free (preserving the historical
// per-vantage snapshot keys byte for byte), vantage/persona otherwise.
func unitLabel(vantage, persona string) string {
	if persona == "" {
		return vantage
	}
	return vantage + "/" + persona
}

// buildLanes resolves the crawl plan's (vantage, persona) cross product
// into scheduling lanes, vantage-major. An empty vantage list collapses
// to the default vantage and an empty persona list to the implicit
// persona-free cell, preserving the historical behaviour byte for byte.
func buildLanes(sites []string, opts *Options) []*laneState {
	vants := opts.Vantages
	if len(vants) == 0 {
		vants = []netsim.Vantage{{}}
	}
	personas := opts.Personas
	if len(personas) == 0 {
		personas = []string{""}
	}
	newFrontier := opts.Scheduler
	if newFrontier == nil {
		newFrontier = NewFIFOFrontier
	}
	lanes := make([]*laneState, 0, len(vants)*len(personas))
	for _, v := range vants {
		var transport http.RoundTripper
		if !v.Default() {
			transport = opts.Internet.From(v)
		}
		for _, persona := range personas {
			id := len(lanes)
			ln := &laneState{id: id, vantage: v, persona: persona, base: id * len(sites)}
			ln.transport = transport
			ln.stats = opts.Stats
			if opts.Stats != nil {
				if label := unitLabel(v.Name, persona); label != "" {
					ln.stats = opts.Stats.Unit(label)
				}
			}
			ln.front = newFrontier()
			for s := range sites {
				ln.front.Push(s)
			}
			if opts.Breaker.Enabled {
				ln.brk = newBreakerState(opts.Breaker, ln.stats)
				ln.passOf = map[int]int{}
			} else if opts.SecondPass.Enabled {
				ln.passOf = map[int]int{}
			}
			lanes = append(lanes, ln)
		}
	}
	return lanes
}

// stream is the shared streaming core: a dispatcher drives the per-
// vantage lanes (frontier order and, when enabled, circuit breaking and
// the second pass) while one bounded worker pool performs all lanes'
// visits and delivers indexed logs in completion order on a channel
// with capacity equal to the worker count, so at most O(workers) logs
// are resident (in flight or buffered) at any time. Cancelling the
// context stops dispatch, unblocks workers mid-stream, and closes both
// channels after the pool drains; the error channel then carries
// ctx.Err().
func stream(ctx context.Context, sites []string, opts Options) (<-chan indexedLog, <-chan error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = 8
	}
	maxClicks := opts.MaxClicks
	if maxClicks <= 0 {
		maxClicks = 3
	}
	if opts.DisableArtifactCache {
		opts.Artifacts = nil
	} else if opts.Artifacts == nil {
		// One cache per crawl, shared by all workers: the population of
		// distinct page/script bytes is crawl-wide, so the parse-once
		// win compounds across sites, not just within one.
		opts.Artifacts = artifact.New()
	}

	out := make(chan indexedLog, workers)
	errc := make(chan error, 1)
	if opts.Internet == nil {
		errc <- fmt.Errorf("crawler: Options.Internet is required")
		close(out)
		close(errc)
		return out, errc
	}
	if opts.CrashAfterUnits > 0 && opts.Journal == nil {
		errc <- fmt.Errorf("crawler: Options.CrashAfterUnits requires Options.Journal")
		close(out)
		close(errc)
		return out, errc
	}
	if opts.Journal != nil {
		opts.Journal.SetKillAfter(opts.CrashAfterUnits)
	}

	// Scheduler feedback is only needed when a stateful policy consumes
	// it; the default configuration runs the historical zero-feedback
	// path and emits byte-identical records. Stateful policies count on
	// Stats unconditionally (requeue/shed accounting), so give them one
	// when the caller didn't.
	needFeedback := opts.Breaker.Enabled || opts.SecondPass.Enabled
	if needFeedback && opts.Stats == nil {
		opts.Stats = &SchedStats{}
	}

	ownedSites := len(sites)
	if opts.Shard != nil {
		if len(opts.Shard.Owned) != len(sites) {
			errc <- fmt.Errorf("crawler: Shard.Owned covers %d sites, crawl has %d", len(opts.Shard.Owned), len(sites))
			close(out)
			close(errc)
			return out, errc
		}
		if needFeedback && opts.Shard.Exchange == nil {
			errc <- fmt.Errorf("crawler: a sharded crawl with breaker/second-pass requires Shard.Exchange")
			close(out)
			close(errc)
			return out, errc
		}
		ownedSites = 0
		for _, own := range opts.Shard.Owned {
			if own {
				ownedSites++
			}
		}
	}

	lanes := buildLanes(sites, &opts)

	// The crawl's inner context carries an abort CAUSE: journal append
	// failures (including the crash-injection kill-point) cancel every
	// worker and the dispatcher, and the cause — not a bare Canceled —
	// is what the error channel reports.
	ctx, abort := context.WithCancelCause(ctx)

	jobs := make(chan visitJob)
	var feedback chan visitOutcome
	if needFeedback {
		feedback = make(chan visitOutcome, workers*2)
	}
	d := &delivery{ctx: ctx, out: out, opts: &opts, total: ownedSites * len(lanes)}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				l, o := visit(sites[j.site], opts, maxClicks, j)
				if feedback != nil {
					o.requeue = j.pass == 1 && opts.SecondPass.Enabled &&
						!l.OK && requeueable(l.Failure)
					if j.lane.stats != nil && j.pass > 1 && l.OK {
						j.lane.stats.SecondPassKept.Add(1)
					}
				}
				if opts.Journal != nil {
					// Write-ahead: the unit's outcome is durable before it
					// feeds the scheduler or the stream, so a crash after
					// this point finds it in the journal on resume. A resume
					// re-execution verifies against its journaled record
					// instead of appending a duplicate.
					if err := journalUnit(&opts, j, l, o); err != nil {
						abort(err)
						return
					}
				}
				if opts.Shard != nil && opts.Shard.Exchange != nil {
					// Publish after journaling: sibling shards only ever
					// fold outcomes this shard can reproduce on resume.
					opts.Shard.Exchange.Publish(unitRecord(j, l, o))
				}
				if feedback != nil {
					select {
					case feedback <- o:
					case <-ctx.Done():
						return
					}
					if o.requeue {
						// The second pass supersedes this record: neither
						// delivery nor progress — the re-crawl accounts it.
						continue
					}
				}
				if !d.deliver(j.lane.base+j.site, l) {
					return
				}
			}
		}()
	}

	go func() {
		dispatch(ctx, abort, sites, &opts, lanes, jobs, feedback, d)
		close(jobs)
		wg.Wait()
		ferr := finalizeJournal(lanes, &opts)
		err := context.Cause(ctx)
		if err == nil {
			err = ferr
		}
		abort(context.Canceled) // release the cause context either way
		if err != nil {
			errc <- err
		}
		close(out)
		close(errc)
	}()
	return out, errc
}

// unitRecord builds one unit's compact journal record: the unit key
// plus the scheduler feedback the dispatcher folds.
func unitRecord(j visitJob, l instrument.VisitLog, o visitOutcome) journal.Record {
	rec := journal.Record{
		Vantage: j.lane.vantage.Name, Persona: j.lane.persona,
		Site: j.site, Pass: j.pass,
		OK: l.OK, Requeue: o.requeue, Failure: l.Failure,
		VirtualMs: o.virtualMs, ShedFetches: o.shedFetches,
	}
	for _, h := range o.hosts {
		rec.Hosts = append(rec.Hosts, journal.HostCount{Host: h.Host, Transient: h.Transient, OK: h.OK})
	}
	return rec
}

// journalUnit journals one unit's terminal outcome — or, when the unit
// is a resume re-execution (its record was loaded from the journal),
// verifies the fresh outcome against the journaled one instead of
// appending. With JournalLogs, fresh non-requeued records also carry
// the full encoded VisitLog (requeued first-pass units never do — the
// second pass supersedes them, and replay re-requeues from the stored
// feedback alone).
func journalUnit(opts *Options, j visitJob, l instrument.VisitLog, o visitOutcome) error {
	rec := unitRecord(j, l, o)
	if j.journaled != nil {
		return verifyUnit(j.journaled, rec)
	}
	if opts.JournalLogs && !o.requeue {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		rec.Log = b
	}
	return opts.Journal.Append(rec)
}

// verifyUnit is compact-mode resume's integrity check: the re-executed
// unit's fresh outcome must field-for-field match what the crashed run
// journaled, or the journal belongs to a run whose behaviour differed
// (changed code, different seed path, tampered file) and replaying its
// siblings would silently diverge. The error names the first differing
// field with both values.
func verifyUnit(prev *journal.Record, fresh journal.Record) error {
	if diff := recordDiff(prev, &fresh); diff != "" {
		return fmt.Errorf("%w: unit %s/%s site %d pass %d re-executed differently: %s",
			journal.ErrDiverged, prev.Vantage, prev.Persona, prev.Site, prev.Pass, diff)
	}
	return nil
}

// recordDiff describes the first scheduler-feedback field in which a
// re-executed unit's record differs from its journaled one — e.g.
// `failure: journaled "timeout", re-executed ""` — or returns "" when
// they match.
func recordDiff(prev, fresh *journal.Record) string {
	const format = "%s: journaled %v, re-executed %v"
	switch {
	case fresh.OK != prev.OK:
		return fmt.Sprintf(format, "ok", prev.OK, fresh.OK)
	case fresh.Requeue != prev.Requeue:
		return fmt.Sprintf(format, "requeue", prev.Requeue, fresh.Requeue)
	case fresh.Failure != prev.Failure:
		return fmt.Sprintf("failure: journaled %q, re-executed %q", prev.Failure, fresh.Failure)
	case fresh.VirtualMs != prev.VirtualMs:
		return fmt.Sprintf(format, "virtual_ms", prev.VirtualMs, fresh.VirtualMs)
	case fresh.ShedFetches != prev.ShedFetches:
		return fmt.Sprintf(format, "shed_fetches", prev.ShedFetches, fresh.ShedFetches)
	case len(fresh.Hosts) != len(prev.Hosts):
		return fmt.Sprintf(format, "hosts length", len(prev.Hosts), len(fresh.Hosts))
	}
	for i, h := range fresh.Hosts {
		if h != prev.Hosts[i] {
			return fmt.Sprintf("hosts[%d]: journaled %+v, re-executed %+v", i, prev.Hosts[i], h)
		}
	}
	return ""
}

// laneSnapshot captures one lane's scheduler state for the journal:
// fold count, frontier position, and — when the lane runs a breaker —
// the virtual clock and full per-host circuit state, plus the
// second-pass set.
func laneSnapshot(ln *laneState) journal.LaneSnapshot {
	s := journal.LaneSnapshot{
		Vantage: ln.vantage.Name, Persona: ln.persona,
		Outcomes: ln.outcomes, Popped: ln.popCount,
	}
	if ln.brk != nil {
		s.VClockMs = ln.brk.vnowMs
		s.Circuits = ln.brk.exportCircuits()
	}
	if len(ln.passOf) > 0 {
		sites := make([]int, 0, len(ln.passOf))
		for site := range ln.passOf {
			sites = append(sites, site)
		}
		sort.Ints(sites)
		for _, site := range sites {
			s.SecondPass = append(s.SecondPass, journal.SitePass{Site: site, Pass: ln.passOf[site]})
		}
	}
	return s
}

// finalizeJournal flushes the crawl's final journal state: one
// snapshot per eligible lane plus a terminal fsync, so an interrupted
// crawl's journal ends with its lanes' last folded positions. Breaker
// lanes always snapshot (their state only mutates at barrier folds, so
// it is deterministic at any stop point); continuous lanes snapshot
// only once drained (mid-flight their second-pass set depends on
// arrival order, which would poison the divergence check of a later
// resume). A dead journal — the crash-injection kill-point fired —
// flushes nothing, exactly like the crash it simulates.
func finalizeJournal(lanes []*laneState, opts *Options) error {
	if opts.Journal == nil {
		return nil
	}
	for _, ln := range lanes {
		// Breaker lanes snapshot at every barrier fold already, and a
		// duplicate here would diverge spuriously: after the last fold
		// the dispatcher's next beginRound may mutate circuit state
		// (cooldown expiry flips open circuits half-open) without any
		// new outcomes folding. Continuous lanes have no barriers, so
		// their one snapshot lands here — but only once the lane is
		// done: mid-flight, which pass a site resolved on depends on
		// arrival order, so partial continuous state is not
		// deterministic and must be recomputed on resume.
		if ln.brk != nil || !ln.done {
			continue
		}
		if err := opts.Journal.AppendSnapshot(laneSnapshot(ln)); err != nil {
			if errors.Is(err, journal.ErrCrashInjected) {
				return nil
			}
			return err
		}
	}
	if err := opts.Journal.Sync(); err != nil && !errors.Is(err, journal.ErrCrashInjected) {
		return err
	}
	return nil
}

// requeueable reports whether a fatal visit failure class qualifies for
// the second pass: the transient network classes plus circuit-open
// sheds (the second pass doubles as the shed host's probe).
func requeueable(class string) bool {
	c := browser.FailureClass(class)
	return c.Transient() || c == browser.FailCircuitOpen
}

// dispatch runs the scheduler: it sweeps the vantage lanes, popping
// each lane's visits into the shared worker pool and folding outcome
// feedback (second-pass requeues and, with the breaker enabled, round-
// synchronous per-lane failure accounting). It returns when every
// (site, vantage) visit has a terminal outcome or the context is
// cancelled.
func dispatch(ctx context.Context, abort context.CancelCauseFunc, sites []string, opts *Options, lanes []*laneState, jobs chan<- visitJob, feedback chan visitOutcome, d *delivery) {
	if feedback == nil {
		// Zero-feedback fast path: the historical dispatch loop with the
		// pop order delegated to each lane's frontier, one pop per lane
		// per sweep so vantages interleave through the pool.
		remaining := len(lanes)
		for remaining > 0 {
			for _, ln := range lanes {
				if ln.done {
					continue
				}
				site, ok := ln.front.Pop()
				if !ok {
					ln.done = true
					remaining--
					continue
				}
				ln.popCount++
				if !opts.Shard.owns(site) {
					// No scheduler state depends on outcomes here, so a
					// foreign unit is purely another shard's work: skip it.
					continue
				}
				rec, ok := journalLookup(opts, ln, site, 1)
				if ok && replayable(rec) {
					if !replayZero(abort, ln, rec, d) {
						return
					}
					continue
				}
				select {
				case <-ctx.Done():
					return
				case jobs <- visitJob{site: site, pass: 1, lane: ln, journaled: rec}:
				}
			}
		}
		return
	}

	s := &dispatcher{
		ctx: ctx, abort: abort, sites: sites, opts: opts,
		jobs: jobs, feedback: feedback, d: d, lanes: lanes,
	}
	s.run()
}

// journalLookup returns the journaled outcome of the unit the
// dispatcher is about to send, if the resume set holds one.
func journalLookup(opts *Options, ln *laneState, site, pass int) (*journal.Record, bool) {
	if opts.Journal == nil {
		return nil, false
	}
	return opts.Journal.Lookup(journal.Key{
		Vantage: ln.vantage.Name, Persona: ln.persona, Site: site, Pass: pass,
	})
}

// replayable reports whether a journaled record can substitute for its
// visit at the dispatch point: requeue records always can (feedback is
// all they ever carried — the second pass supersedes their output),
// and stored-log records (JournalLogs) carry the full encoded
// VisitLog. Compact records carry neither; their units re-execute
// deterministically and the worker verifies the fresh outcome against
// the record instead.
func replayable(rec *journal.Record) bool {
	return rec.Requeue || len(rec.Log) > 0
}

// replayZero replays one journaled unit on the zero-feedback fast
// path: stats plus delivery of the stored record, no scheduler state
// to touch. Returns false when the crawl aborts (corrupt record) or is
// cancelled.
func replayZero(abort context.CancelCauseFunc, ln *laneState, rec *journal.Record, d *delivery) bool {
	if rec.Requeue {
		// A requeue can only come from a second-pass configuration; this
		// path has none, so the journal cannot belong to this crawl.
		abort(fmt.Errorf("%w: requeued unit %d in a single-pass crawl", journal.ErrDiverged, rec.Site))
		return false
	}
	if ln.stats != nil {
		ln.stats.Visits.Add(1)
		ln.stats.VirtualMs.Add(int64(rec.VirtualMs))
	}
	var l instrument.VisitLog
	if err := json.Unmarshal(rec.Log, &l); err != nil {
		abort(fmt.Errorf("crawler: journal replay of site %d: %w", rec.Site, err))
		return false
	}
	return d.deliver(ln.base+rec.Site, l)
}

// dispatcher is the scheduling state machine driven by the dispatch
// goroutine. It multiplexes the lanes over one worker pool: each sweep
// gives every live lane a chance to progress its own state machine
// (dispatch phase or round barrier), and when no lane can move without
// an outcome, it blocks on the shared feedback channel. Outcomes
// always fold into their own lane, so lane state — and with it every
// record — is exactly what a one-lane crawl of that cell would
// produce.
type dispatcher struct {
	ctx      context.Context
	abort    context.CancelCauseFunc
	sites    []string
	opts     *Options
	jobs     chan<- visitJob
	feedback chan visitOutcome
	d        *delivery
	lanes    []*laneState
}

// replay folds one journaled unit without performing its visit: the
// stored outcome feeds the lane exactly as the worker's feedback would
// have (through pending/collect, so barrier and fold invariants hold
// unchanged), the stored stats re-add, and the stored record
// re-delivers downstream. Called at the exact point send() would have
// dispatched the unit, so round composition, fold order, and every
// derived scheduler decision match the original run. Returns false
// when the crawl aborts or is cancelled.
func (s *dispatcher) replay(ln *laneState, rec *journal.Record) bool {
	if s.opts.Shard != nil && s.opts.Shard.Exchange != nil {
		// An adopted (resumed) shard re-publishes every replayed unit:
		// sibling shards blocked on outcomes the crashed run journaled
		// but never published unblock here. Publish is idempotent.
		pub := *rec
		pub.Log, pub.LogSum = nil, ""
		s.opts.Shard.Exchange.Publish(pub)
	}
	o := visitOutcome{
		idx: rec.Site, lane: ln.id, pass: rec.Pass,
		requeue: rec.Requeue, virtualMs: rec.VirtualMs,
	}
	for _, h := range rec.Hosts {
		o.hosts = append(o.hosts, browser.HostOutcome{Host: h.Host, Transient: h.Transient, OK: h.OK})
	}
	if ln.stats != nil {
		ln.stats.Visits.Add(1)
		ln.stats.VirtualMs.Add(int64(rec.VirtualMs))
		if rec.ShedFetches > 0 {
			ln.stats.ShedFetches.Add(rec.ShedFetches)
		}
		if rec.Pass > 1 && rec.OK {
			ln.stats.SecondPassKept.Add(1)
		}
	}
	if !rec.Requeue {
		var l instrument.VisitLog
		if err := json.Unmarshal(rec.Log, &l); err != nil {
			s.abort(fmt.Errorf("crawler: journal replay of %s/%s site %d pass %d: %w",
				ln.vantage.Name, ln.persona, rec.Site, rec.Pass, err))
			return false
		}
		if !s.d.deliver(ln.base+rec.Site, l) {
			return false
		}
	}
	ln.pending++
	s.collect(o)
	return true
}

// collect folds one feedback message into its lane. Without the
// breaker, requeues hit the lane's frontier immediately — order cannot
// influence records, since each visit's bytes depend only on (url,
// seed, pass, vantage). With the breaker, requeues are deferred to the
// lane's round barrier, where they apply in sorted (pass, idx) order:
// frontier state must never depend on completion timing once shed
// decisions read it.
func (s *dispatcher) collect(o visitOutcome) {
	ln := s.lanes[o.lane]
	ln.pending--
	if ln.brk != nil {
		ln.round = append(ln.round, o)
		return
	}
	s.resolve(ln, o)
	ln.outcomes++
}

// resolve applies a visit outcome to its lane's frontier. Foreign
// outcomes mutate the replicated lane state but never the stats — the
// owning shard accounts its own work.
func (s *dispatcher) resolve(ln *laneState, o visitOutcome) {
	if o.requeue {
		if !o.foreign {
			ln.stats.Requeued.Add(1)
		}
		ln.passOf[o.idx] = o.pass + 1
		ln.front.Requeue(o.idx)
		return
	}
	ln.front.Complete(o.idx)
}

// awaitForeign folds a sibling shard's unit: a waiter goroutine
// fetches the owner's published outcome from the exchange and feeds it
// through the normal feedback path, so the replicated lane state
// machine folds byte-identical state without performing the visit.
// Delivery and stats stay with the owner.
func (s *dispatcher) awaitForeign(ln *laneState, site, pass int) {
	ln.pending++
	k := journal.Key{Vantage: ln.vantage.Name, Persona: ln.persona, Site: site, Pass: pass}
	laneID := ln.id
	go func() {
		rec, err := s.opts.Shard.Exchange.Wait(s.ctx, k)
		if err != nil {
			return // cancelled; the dispatcher is exiting too
		}
		o := visitOutcome{
			idx: rec.Site, lane: laneID, pass: rec.Pass,
			requeue: rec.Requeue, virtualMs: rec.VirtualMs, foreign: true,
		}
		for _, h := range rec.Hosts {
			o.hosts = append(o.hosts, browser.HostOutcome{Host: h.Host, Transient: h.Transient, OK: h.OK})
		}
		select {
		case s.feedback <- o:
		case <-s.ctx.Done():
		}
	}()
}

// send dispatches one job, draining feedback (from any lane) while the
// pool is busy. Returns false when the crawl is cancelled.
func (s *dispatcher) send(j visitJob) bool {
	for {
		select {
		case s.jobs <- j:
			j.lane.pending++
			return true
		case o := <-s.feedback:
			s.collect(o)
		case <-s.ctx.Done():
			return false
		}
	}
}

// shed handles a visit whose landing host's circuit is open at dispatch
// time: with the second pass available it is requeued (the re-crawl
// doubles as the host's probe); otherwise a terminal circuit-open
// record is emitted without constructing a browser. Shed decisions are
// a pure function of the replicated lane state, so in a sharded crawl
// every shard computes the same sheds — a foreign shed applies its
// frontier effect here but leaves stats and the emitted record to the
// owner. Returns false when the crawl is cancelled.
func (s *dispatcher) shed(ln *laneState, site, pass int, owned bool) bool {
	if owned {
		ln.stats.ShedVisits.Add(1)
	}
	if pass == 1 && s.opts.SecondPass.Enabled {
		if owned {
			ln.stats.Requeued.Add(1)
		}
		ln.passOf[site] = pass + 1
		ln.front.Requeue(site)
		return true
	}
	ln.front.Complete(site)
	if !owned {
		return true
	}
	url := s.sites[site]
	l := instrument.VisitLog{
		Site:    urlutil.RegistrableDomain(url),
		URL:     url,
		Error:   "crawler: circuit open: " + urlutil.Hostname(url),
		Failure: string(browser.FailCircuitOpen),
	}
	l.Vantage = ln.vantage.Name
	l.Persona = ln.persona
	return s.d.deliver(ln.base+site, l)
}

// run drives all lanes to completion. Each sweep steps every live
// lane; when a sweep makes no progress (every live lane is waiting on
// outcomes), it blocks on feedback. A lane is done when a fresh round
// (or pop attempt) finds its frontier empty with nothing pending —
// exactly a one-lane crawl's termination condition, evaluated per lane.
func (s *dispatcher) run() {
	for {
		allDone, progressed := true, false
		for _, ln := range s.lanes {
			if ln.done {
				continue
			}
			allDone = false
			moved, ok := s.step(ln)
			if !ok {
				return // cancelled
			}
			if moved {
				progressed = true
			}
		}
		if allDone {
			return
		}
		if !progressed {
			select {
			case o := <-s.feedback:
				s.collect(o)
			case <-s.ctx.Done():
				return
			}
		}
	}
}

// step advances one lane's state machine: with the breaker, through the
// dispatch-round / barrier / fold cycle; without it, one continuous pop
// per sweep so lanes interleave fairly. Returns (progressed, !cancelled).
func (s *dispatcher) step(ln *laneState) (bool, bool) {
	if ln.brk == nil {
		return s.stepContinuous(ln)
	}
	return s.stepRound(ln)
}

// stepContinuous drives a breaker-less lane (second pass only): pops
// dispatch as fast as the pool accepts them, and the frontier holds
// requeues back until the primary set has drained.
func (s *dispatcher) stepContinuous(ln *laneState) (bool, bool) {
	site, ok := ln.front.Pop()
	if !ok {
		if ln.pending == 0 {
			ln.done = true // drained: every visit and every requeue is terminal
			return true, true
		}
		// Nothing to dispatch until an outcome lands (it may refill the
		// frontier with a second-pass requeue).
		return false, true
	}
	ln.popCount++
	pass := ln.pass(site)
	if !s.opts.Shard.owns(site) {
		s.awaitForeign(ln, site, pass)
		return true, true
	}
	rec, ok := journalLookup(s.opts, ln, site, pass)
	if ok && replayable(rec) {
		return true, s.replay(ln, rec)
	}
	return true, s.send(visitJob{site: site, pass: pass, lane: ln, journaled: rec})
}

// stepRound drives one lane of the circuit breaker: the lane proceeds
// in rounds of Breaker.RoundVisits dispatched against a frozen open-
// circuit snapshot, with a barrier and a sorted fold between rounds, so
// every shed decision — and with it every emitted record — is
// independent of worker count, completion timing, and the other lanes.
// One call dispatches at most one round or folds at most one barrier.
func (s *dispatcher) stepRound(ln *laneState) (bool, bool) {
	if ln.barrier {
		if ln.pending > 0 {
			return false, true // other lanes fill the pool while this one drains
		}
		// Fold the round: endRound sorts by (pass, idx); requeues and
		// completions apply in that same order.
		ln.brk.endRound(ln.round)
		for _, o := range ln.round {
			s.resolve(ln, o)
		}
		ln.outcomes += len(ln.round)
		ln.round = ln.round[:0]
		ln.barrier = false
		if s.opts.Journal != nil && ln.outcomes-ln.lastSnap >= journalSnapshotStride {
			// Periodic snapshot at the barrier: post-fold lane state is a
			// pure function of prior rounds, so on resume the recomputed
			// snapshot at this fold count must digest-match the journaled
			// one — the journal's divergence check.
			if err := s.opts.Journal.AppendSnapshot(laneSnapshot(ln)); err != nil {
				s.abort(err)
				return false, false
			}
			ln.lastSnap = ln.outcomes
		}
		return true, true
	}
	if !ln.inRound {
		ln.gate = ln.brk.beginRound()
		ln.inRound = true
		ln.sent = 0
		ln.popped = false
	}
	for ln.sent < s.opts.Breaker.roundSize() {
		site, ok := ln.front.Pop()
		if !ok {
			break
		}
		ln.popCount++
		ln.popped = true
		pass := ln.pass(site)
		owned := s.opts.Shard.owns(site)
		if pass == 1 && ln.brk.blocked(urlutil.Hostname(s.sites[site])) {
			if !s.shed(ln, site, pass, owned) {
				return false, false
			}
			continue
		}
		if !owned {
			// A foreign unit still occupies its round slot (sent++), so
			// round composition — and the gate every later round freezes
			// — matches the unsharded run exactly.
			s.awaitForeign(ln, site, pass)
			ln.sent++
			continue
		}
		rec, ok := journalLookup(s.opts, ln, site, pass)
		if ok && replayable(rec) {
			// Replayed units still occupy their round slot (sent++), so
			// round composition — and with it the gate every later round
			// freezes — matches the original run exactly.
			if !s.replay(ln, rec) {
				return false, false
			}
			ln.sent++
			continue
		}
		g := ln.gate
		if pass > 1 && g != nil {
			// The re-crawl is the half-open probe for a circuit the
			// visit's own landing failure opened.
			g = g.withException(urlutil.Hostname(s.sites[site]))
		}
		if !s.send(visitJob{site: site, pass: pass, gate: g, lane: ln, journaled: rec}) {
			return false, false
		}
		ln.sent++
	}
	ln.inRound = false
	if !ln.popped && ln.pending == 0 {
		ln.done = true // frontier drained and no outcome can refill it
		if s.opts.Journal != nil && ln.lastSnap != ln.outcomes {
			// Terminal snapshot: every outcome is folded, nothing is in
			// flight, and this point is reached at a deterministic fold
			// count — the lane's last word in the journal. Skipped when
			// the stride already snapshotted this fold count (beginRound
			// may have mutated circuit state since, so a second snapshot
			// at the same key would spuriously diverge).
			if err := s.opts.Journal.AppendSnapshot(laneSnapshot(ln)); err != nil {
				s.abort(err)
				return false, false
			}
			ln.lastSnap = ln.outcomes
		}
		return true, true
	}
	ln.barrier = true
	return true, true
}

// Stream visits every URL in sites — from every configured vantage —
// and delivers the logs incrementally, in completion order, as each
// visit finishes. With Options.Vantages, all vantages' visits
// interleave through one worker pool (each log carries its Vantage
// tag). The log channel is bounded by the worker count, so a slow
// consumer backpressures the crawl instead of accumulating results;
// cancelling the context stops the crawl mid-stream and drains the
// worker pool. Both channels are closed when the crawl ends; the error
// channel yields at most one error (the context's, or a configuration
// error).
func Stream(ctx context.Context, sites []string, opts Options) (<-chan instrument.VisitLog, <-chan error) {
	in, errc := stream(ctx, sites, opts)
	out := make(chan instrument.VisitLog) // unbuffered: the bound lives in the indexed stream
	go func() {
		defer close(out)
		for il := range in {
			select {
			case out <- il.log:
			case <-ctx.Done():
				// The consumer may have walked away after cancelling;
				// drain the inner stream so the worker pool unblocks.
				for range in {
				}
				return
			}
		}
	}()
	return out, errc
}

// Crawl visits every URL in sites and returns the collected logs, in
// the order of the input list; with Options.Vantages and/or
// Options.Personas the result is the per-(vantage, persona) blocks
// concatenated in lane order — vantage-major, personas in list order
// within a vantage (exactly what one-lane crawls of each cell would
// have appended). It is a batch wrapper over the stream: it materializes
// the whole result set, so memory scales with len(sites) × vantages ×
// personas — use Stream for single-pass pipelines. The context cancels
// outstanding visits; logs completed before cancellation are retained.
func Crawl(ctx context.Context, sites []string, opts Options) (*Result, error) {
	n := len(sites)
	if len(opts.Vantages) > 0 {
		n *= len(opts.Vantages)
	}
	if len(opts.Personas) > 0 {
		n *= len(opts.Personas)
	}
	logs := make([]instrument.VisitLog, n)
	in, errc := stream(ctx, sites, opts)
	for il := range in {
		logs[il.idx] = il.log
	}
	if err := <-errc; err != nil {
		return &Result{Logs: logs}, err
	}
	return &Result{Logs: logs}, nil
}

// passSeedSalt differentiates browser randomness across crawl passes,
// the same way the index salt differentiates it across sites.
const passSeedSalt = 0xda942042e4dd58b5

// visit performs one instrumented site visit for one dispatched job.
// The returned outcome carries the scheduler's feedback: virtual time
// burned and per-host fetch accounting (breaker runs only). A visit's
// bytes depend only on (url, seed, pass, vantage, persona, gate
// snapshot) — the seed is salted by site index and pass, never by
// vantage, persona, or lane, so the same crawl-plan unit reproduces
// identically whether its lane is crawled alone or beside others;
// persona influences the bytes only through the consent click's
// page-level effects.
func visit(url string, opts Options, maxClicks int, j visitJob) (l instrument.VisitLog, out visitOutcome) {
	n := uint64(j.site)
	out = visitOutcome{idx: j.site, lane: j.lane.id, pass: j.pass}
	site := urlutil.RegistrableDomain(url)
	rec := instrument.NewRecorder()

	seed := opts.Seed ^ (n * 0x9e3779b97f4a7c15)
	var clock *vclock.Clock
	startAt := vclock.Epoch
	if j.pass > 1 {
		// A later pass is a later crawl: its browser's clock starts
		// offset (host flap schedules can have moved on), its attempt
		// numbers continue past the first pass's budget (per-attempt
		// fault decisions draw fresh), and its randomness is re-salted.
		seed ^= uint64(j.pass-1) * passSeedSalt
		startAt = startAt.Add(time.Duration(float64(j.pass-1) * opts.SecondPass.offsetMs() * float64(time.Millisecond)))
		clock = vclock.NewAt(startAt)
	}
	attemptBase := 0
	if j.pass > 1 {
		perPass := opts.Retry.MaxAttempts
		if perPass < 1 {
			perPass = 1
		}
		attemptBase = (j.pass - 1) * perPass
	}
	var gate browser.FetchGate
	var cg *countingGate
	if j.gate != nil {
		gate = j.gate
		if opts.Journal != nil {
			cg = &countingGate{inner: j.gate}
			gate = cg
		}
	}

	// finish stamps the scheduler's marks on the assembled log and
	// collects the outcome. Registered after the Release defer below, so
	// it runs first — the browser's clock and accounting are still live.
	finish := func(b *browser.Browser) {
		if j.lane.vantage.Name != "" {
			l.Vantage = j.lane.vantage.Name
		}
		if j.lane.persona != "" {
			l.Persona = j.lane.persona
		}
		if j.pass > 1 {
			for i := range l.Requests {
				l.Requests[i].Attempt = j.pass
			}
		}
		if j.lane.stats != nil || opts.Journal != nil {
			out.virtualMs = float64(b.Clock().Now().Sub(startAt)) / float64(time.Millisecond)
		}
		if j.lane.stats != nil {
			j.lane.stats.Visits.Add(1)
			j.lane.stats.VirtualMs.Add(int64(out.virtualMs))
		}
		out.hosts = b.HostReport()
		if cg != nil {
			out.shedFetches = cg.shed
		}
	}

	// The recorder installs innermost — between the jar and any guard —
	// so it logs the operations that actually take effect. A guard
	// placed above it filters reads and swallows blocked writes before
	// they reach the log, which is what the Figure 5 comparison
	// measures (effective cross-domain actions under enforcement).
	mw := []browser.CookieMiddleware{rec.Middleware()}
	var attach func(*browser.Browser)
	if opts.PerVisit != nil {
		var extra []browser.CookieMiddleware
		extra, attach = opts.PerVisit()
		mw = append(mw, extra...)
	}

	b, err := browser.New(browser.Options{
		Internet:         opts.Internet,
		Transport:        j.lane.transport,
		Clock:            clock,
		CookieMiddleware: mw,
		Seed:             seed,
		Artifacts:        opts.Artifacts,
		Retry:            opts.Retry,
		VisitBudgetMs:    opts.VisitBudgetMs,
		Pooling:          !opts.DisablePooling,
		Gate:             gate,
		AttemptBase:      attemptBase,
		TrackHosts:       opts.Breaker.Enabled,
	})
	if err != nil {
		l = instrument.VisitLog{Site: site, URL: url, Error: err.Error()}
		return l, out
	}
	if attach != nil {
		attach(b)
	}
	rec.ObserveJar(b.Jar())
	// The worker owns the pooling lifecycle: BuildVisitLog copies out
	// everything the log keeps, after which the visit's pages, arenas,
	// and interpreters go back to the pools. Nothing of the visit is
	// touched after Release. finish registers second, so it runs before
	// Release (defers are LIFO) while the browser is still live.
	defer b.Release()
	defer func() { finish(b) }()

	var pages []*browser.Page
	landing, err := b.Visit(url)
	if err != nil {
		// The partial page keeps the failed visit's trace — the document
		// request, its retries, its failure class — in the log, so the
		// failure taxonomy sees what the visit burned before dying.
		l = rec.BuildVisitLog(site, []*browser.Page{landing}, err)
		return l, out
	}
	pages = append(pages, landing)

	if j.lane.persona != "" {
		// The persona acts on the consent banner before any normal
		// interaction: a targeted click on the banner element matching
		// the persona's action. Sites without a CMP (or an unknown
		// persona name) register no matching handler and the click is a
		// deterministic no-op — zero handlers fire, nothing is recorded.
		landing.ClickID("cmp-" + j.lane.persona)
	}

	if opts.Interact {
		current := landing
		current.Scroll()
		for c := 0; c < maxClicks; c++ {
			if b.DeadlineExceeded() {
				// Budget exhausted between pages: keep what we have and
				// latch the deadline so the visit log records it.
				current.DeadlineHit = true
				break
			}
			current.Click()
			link := current.RandomLink()
			b.Clock().AdvanceMillis(2000) // the paper's two-second pause
			if link == "" || urlutil.RegistrableDomain(link) != site {
				continue
			}
			next, err := b.Visit(link)
			if err != nil {
				// A failed same-site navigation degrades the visit, it
				// does not end it: keep the partial page so the failed
				// document request reaches the log and the taxonomy.
				pages = append(pages, next)
				continue
			}
			pages = append(pages, next)
			current = next
			current.Scroll()
		}
	}
	l = rec.BuildVisitLog(site, pages, nil)
	return l, out
}

// SiteURLs extracts the URL list for a crawl from ranked site domains.
func SiteURLs(domains []string) []string {
	out := make([]string, len(domains))
	for i, d := range domains {
		out[i] = "https://www." + d + "/"
	}
	return out
}
