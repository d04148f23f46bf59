// Command crawl runs the instrumented measurement crawl (§4.2) over a
// generated synthetic web and writes one JSON visit log per line. Logs
// are written as the crawl produces them — a single streaming pass with
// O(workers) resident logs, so arbitrarily large site counts fit in
// constant memory. Lines appear in completion order, which varies with
// scheduling; with a fixed -seed the per-site records are byte-identical
// across runs, so compare outputs as sets — or pass -sort to emit
// site-ordered, byte-stable JSONL directly (buffers the whole output, so
// memory scales with -sites) and diff whole files.
//
// Usage:
//
//	crawl [-sites N] [-workers N] [-seed S] [-guard] [-sort] [-faults RATE]
//	      [-retries N] [-second-pass] [-breaker] [-autopilot]
//	      [-vantages eu-west,us-east]
//	      [-personas accept,reject,dismiss] [-cmp]
//	      [-pooling=BOOL] [-v] [-o logs.jsonl] [-list tranco.csv]
//	      [-serve :8089] [-snap-every K]
//	      [-checkpoint DIR] [-crash-after N]
//	      [-shards N] [-shard-driver inprocess|subprocess]
//
// -shards N splits the crawl's (site, vantage, persona) unit space into
// N deterministic shards — partitioned by a seeded hash of each site's
// registrable domain, so one host's breaker and autopilot state never
// straddles shards — runs them concurrently, and merges the results so
// the output (and the -sort file, and every served /v1 endpoint) is
// byte-identical to an unsharded run with the same flags. The default
// in-process driver runs N pipelines inside this process over one
// shared frozen web; -shard-driver subprocess re-execs this binary once
// per shard (crawl -shard i/N -checkpoint DIR/shard-i), supervises the
// worker processes, adopts any that crash — relaunching them to resume
// from their own checkpoint journals — and k-way-merges the per-shard
// -sort outputs. Configurations with cross-shard feedback (-breaker,
// -autopilot, -second-pass) require -checkpoint under the subprocess
// driver: the shard journals double as the outcome-exchange transport.
// -shard i/N is the worker half of that protocol; it crawls only shard
// i's units and is not normally invoked by hand.
//
// -checkpoint enables crash-safe checkpointing: every terminal unit is
// journaled write-ahead in DIR, and rerunning with the same flags and a
// non-empty DIR RESUMES the crawl — journaled units re-execute
// deterministically with their outcomes verified against the journal,
// live crawling picks up at the first missing one, and the finished
// output is byte-identical to an uninterrupted run (same -sort file,
// any -workers). -crash-after N kills the crawl right after the N-th
// journaled unit (exit code 3) for resume testing; leave it off when
// resuming. SIGINT/SIGTERM stops the crawl gracefully: in-flight
// visits drain, buffered journal appends flush, the -serve server
// drains its connections, and the process exits 130 (crawl cut short)
// or 0 (interrupted while serving final results — the normal way out).
//
// -serve additionally runs the live analysis alongside the crawl and
// exposes it at the given address (cookieguard.Server: /v1/results,
// /v1/tables/retention, ..., with ?index=N&wait=30s blocking queries —
// `curl 'localhost:8089/v1/tables/retention?index=0'` streams table
// updates while the crawl runs). A fresh snapshot publishes every
// -snap-every visits (default 64) and once at the end; after the crawl
// the process keeps serving the final results until interrupted.
//
// -v prints live counters (progress, fabric faults, cache and pool hit
// rates) to stderr every 100 visits. -pooling=false disables per-visit
// object pooling; pooled and unpooled crawls with the same -seed emit
// byte-identical records.
//
// Scheduling: -second-pass re-crawls visits that failed on transient
// classes once the primary frontier drains (only the re-crawl's record
// is emitted, marked with "attempt":2 on its requests); -breaker sheds
// fetches and visits to hosts whose circuit opened ("circuit-open"
// failure class) instead of burning the retry budget; -autopilot
// replaces the breaker's fixed threshold/cooldown constants with
// per-host values learned from observed inter-failure intervals on the
// virtual clock; -vantages crawls every site once per named region —
// region-derived latency and, with -faults, region-seeded fault
// schedules — tagging each record with its vantage, all vantages'
// visits sharing one worker pool; -personas crawls every (site,
// vantage) pair once per named consent persona (accept/reject/dismiss
// clicks on the generated consent banners, implying -cmp), tagging
// each record with its persona; -cmp alone generates the
// consent-manager web without acting on the banners. All of these keep
// per-(site, vantage, persona) records byte-identical across runs and
// worker counts for a fixed -seed; -sort orders the output file by
// that same (site, vantage, persona) key.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"cookieguard"
	"cookieguard/internal/trancolist"
)

func main() {
	sites := flag.Int("sites", 1000, "sites to generate and crawl")
	workers := flag.Int("workers", 16, "concurrent visits")
	seed := flag.Uint64("seed", 0, "override the default deterministic seed")
	guarded := flag.Bool("guard", false, "crawl with CookieGuard enabled")
	sortOut := flag.Bool("sort", false,
		"emit site-ordered JSONL instead of completion order: with a fixed -seed the whole file is byte-stable across runs and worker counts, so plain diff works (buffers all logs; memory scales with -sites)")
	outPath := flag.String("o", "-", "output JSONL path (- = stdout)")
	listPath := flag.String("list", "", "also write the ranked site list (Tranco analogue) to this path")
	faults := flag.Float64("faults", 0,
		"overall per-attempt fault rate injected by the fabric (0 disables; deterministic for a fixed -seed)")
	retries := flag.Int("retries", 1, "attempt budget per fetch under faults (1 = no retries)")
	secondPass := flag.Bool("second-pass", false,
		"re-crawl visits that failed on transient classes once the primary frontier drains (the failure-set second pass)")
	breaker := flag.Bool("breaker", false,
		"per-host circuit breaking: shed fetches/visits to hosts that keep failing instead of burning the retry budget")
	autopilot := flag.Bool("autopilot", false,
		"self-tuning breaker thresholds: learn each host's failure threshold and cooldown from its observed inter-failure intervals (implies -breaker)")
	vantages := flag.String("vantages", "",
		"comma-separated vantage-point names; crawls every site once per region (region-derived latency, region-seeded -faults), tagging records with their vantage")
	personas := flag.String("personas", "",
		"comma-separated consent personas (e.g. accept,reject,dismiss); crawls every (site, vantage) pair once per persona, clicking the matching consent-banner action before interacting (implies -cmp), tagging records with their persona")
	cmp := flag.Bool("cmp", false,
		"generate the web with consent-management platforms (banner + gated trackers) without acting on the banners; implied by -personas")
	pooling := flag.Bool("pooling", true,
		"recycle per-visit state (pages, DOM arenas, interpreters) through object pools; -pooling=false reproduces the unpooled baseline byte for byte")
	verbose := flag.Bool("v", false,
		"print live crawl counters to stderr (progress, fabric faults, cache and pool hit rates)")
	serveAddr := flag.String("serve", "",
		"serve live analysis over HTTP at this address (e.g. :8089) while crawling, and keep serving the final results after the crawl until interrupted")
	snapEvery := flag.Int("snap-every", 0,
		"publish an analysis snapshot every K visits on the served endpoints (0 = default 64); only meaningful with -serve")
	checkpoint := flag.String("checkpoint", "",
		"crash-safe checkpoint directory: journal every terminal unit write-ahead, and resume from a non-empty journal to output byte-identical to an uninterrupted run")
	crashAfter := flag.Int("crash-after", 0,
		"crash-injection harness: abort with exit code 3 right after the N-th journaled unit (requires -checkpoint; omit when resuming)")
	shards := flag.Int("shards", 1,
		"split the crawl into N deterministic shards (seeded hash of each site's registrable domain) run concurrently and merged byte-identical to an unsharded run")
	shardDriver := flag.String("shard-driver", "inprocess",
		"how -shards runs: inprocess (N pipelines in this process) or subprocess (re-exec this binary per shard, supervise, adopt crashed shards from their journals, merge outputs)")
	shardSpec := flag.String("shard", "",
		"worker mode i/N: crawl only shard i of N (the subprocess driver's re-exec protocol; pair with -checkpoint DIR/shard-i when the config needs cross-shard feedback)")
	flag.Parse()

	if *shardDriver != "inprocess" && *shardDriver != "subprocess" {
		fatal(fmt.Errorf("unknown -shard-driver %q (want inprocess or subprocess)", *shardDriver))
	}
	if *shards > 1 && *shardDriver == "subprocess" && *shardSpec == "" {
		// Supervisor mode: this process never crawls — it re-execs itself
		// once per shard and merges what the workers wrote.
		if *serveAddr != "" || *listPath != "" {
			fatal(errors.New("-serve and -list are not supported with -shard-driver subprocess; use the in-process driver"))
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		sup := &shardSupervisor{
			shards:     *shards,
			sortOut:    *sortOut,
			outPath:    *outPath,
			checkpoint: *checkpoint,
			crashAfter: *crashAfter,
			workerArgs: workerArgs(*sites, *workers, *seed, *guarded, *sortOut, *faults,
				*retries, *secondPass, *breaker, *autopilot, *vantages,
				*personas, *cmp, *pooling, *verbose),
		}
		code := sup.run(ctx)
		stop()
		os.Exit(code)
	}

	opts := []cookieguard.Option{
		cookieguard.WithSites(*sites),
		cookieguard.WithWorkers(*workers),
		cookieguard.WithSeed(*seed),
		cookieguard.WithInteract(true),
		cookieguard.WithPooling(*pooling),
	}
	if *verbose {
		// Live counters every 100 visits (and on the last): fault totals
		// and cache/pool hit rates, so long crawls are observable.
		opts = append(opts, cookieguard.WithProgressStats(func(ps cookieguard.ProgressStats) {
			if ps.Done%100 != 0 && ps.Done != ps.Total {
				return
			}
			cs := ps.Cache
			progHit := rate(cs.ProgramHits, cs.ProgramMisses)
			bodyHit := rate(cs.BodyHits, cs.BodyMisses)
			fmt.Fprintf(os.Stderr,
				"crawl: %d/%d visits, %d requests, %d faults, cache prog %.1f%% body %.1f%%, pool reuse %.1f%%\n",
				ps.Done, ps.Total, ps.Requests, ps.Faults,
				100*progHit, 100*bodyHit, 100*ps.Pool.ReuseRate())
		}))
	}
	if *guarded {
		opts = append(opts, cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()))
	}
	if *faults > 0 {
		opts = append(opts, cookieguard.WithFaults(cookieguard.UniformFaults(*faults, *seed)))
	}
	if *retries > 1 {
		rp := cookieguard.DefaultRetryPolicy()
		rp.MaxAttempts = *retries
		opts = append(opts, cookieguard.WithRetryPolicy(rp))
	}
	if *secondPass {
		opts = append(opts, cookieguard.WithSecondPass(true))
	}
	if *breaker {
		opts = append(opts, cookieguard.WithBreaker(cookieguard.Breaker{Enabled: true}))
	}
	if *autopilot {
		opts = append(opts, cookieguard.WithBreakerAutopilot())
	}
	if *vantages != "" {
		var vs []cookieguard.Vantage
		for _, name := range strings.Split(*vantages, ",") {
			if name = strings.TrimSpace(name); name != "" {
				vs = append(vs, cookieguard.RegionVantage(name, *faults, *seed))
			}
		}
		opts = append(opts, cookieguard.WithVantages(vs...))
	}
	personaList := splitNames(*personas)
	if len(personaList) > 0 {
		opts = append(opts, cookieguard.WithPersonas(personaList...))
	}
	if *cmp {
		opts = append(opts, cookieguard.WithCMP(true))
	}
	if *checkpoint != "" {
		opts = append(opts, cookieguard.WithCheckpoint(*checkpoint))
	}
	if *crashAfter > 0 {
		opts = append(opts, cookieguard.WithCrashAfterUnits(*crashAfter))
	}
	if *shardSpec != "" {
		i, n, err := parseShardSpec(*shardSpec)
		fatal(err)
		opts = append(opts, cookieguard.WithShardWorker(i, n))
	} else if *shards > 1 {
		opts = append(opts, cookieguard.WithShards(*shards))
	}
	p := cookieguard.New(opts...)

	// SIGINT/SIGTERM cancels the crawl context: workers drain their
	// in-flight visits, the journal flushes, and the exit path below
	// shuts the server down gracefully. A second signal kills the
	// process the default way (stop() restores default handling once
	// ctx fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -serve: analysis rides along with the crawl. The stream loop below
	// is the single consumer, so one shard suffices; snapshots publish at
	// the requested cadence and blocked /v1 pollers wake on each.
	var (
		sh        *cookieguard.ShardedAnalyzer
		store     *cookieguard.ResultStore
		snapCycle = *snapEvery
	)
	if *serveAddr != "" {
		bound, err := p.StartServer(*serveAddr)
		fatal(err)
		fmt.Fprintf(os.Stderr, "crawl: serving live analysis on http://%s/v1/\n", bound)
		store = p.ResultStore()
		sh = p.NewShardedAnalyzer(1)
		if snapCycle <= 0 {
			snapCycle = 64
		}
	}
	total := *sites * len(p.Vantages())
	if len(personaList) > 0 {
		total *= len(personaList)
	}

	if *listPath != "" {
		f, err := os.Create(*listPath)
		fatal(err)
		fatal(trancolist.Write(f, p.SiteList()))
		fatal(f.Close())
	}

	out := os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		fatal(err)
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	defer w.Flush()

	logs, errs := p.Stream(ctx)
	visited, complete := 0, 0
	type rec struct{ site, line string }
	var buffered []rec
	// The streaming path encodes straight into the buffered writer: the
	// encoder reuses its internal buffers line over line, where the old
	// Marshal-per-line path allocated (and copied) every encoded log.
	enc := json.NewEncoder(w)
	for l := range logs {
		visited++
		if l.Complete() {
			complete++
		}
		if sh != nil {
			sh.Observe(0, l)
			if visited%snapCycle == 0 {
				store.Publish(cookieguard.ResultProgress{Done: visited, Total: total}, sh.Snapshot())
			}
		}
		if *sortOut {
			b, err := json.Marshal(l)
			fatal(err)
			buffered = append(buffered, rec{site: l.Site + "\x00" + l.Vantage + "\x00" + l.Persona, line: string(b)})
			continue
		}
		fatal(enc.Encode(l))
	}
	if err := <-errs; err != nil {
		switch {
		case errors.Is(err, cookieguard.ErrCrashInjected):
			// The injected kill fires after its unit record is durable:
			// partial output is deliberately NOT flushed (the journal is
			// the source of truth) and exit code 3 tells the harness the
			// crash landed as seeded.
			fmt.Fprintf(os.Stderr, "crawl: crash injected after %d units; resume with -checkpoint %s\n",
				*crashAfter, *checkpoint)
			os.Exit(3)
		case errors.Is(err, context.Canceled) && ctx.Err() != nil:
			// Interrupted: in-flight visits drained before the stream
			// closed. Keep the partial output, flush the journal and
			// drain the server, and exit 130 (128+SIGINT) so callers see
			// the crawl was cut short.
			w.Flush()
			shutdown(p)
			fmt.Fprintf(os.Stderr, "crawl: interrupted after %d visits; journal flushed\n", visited)
			os.Exit(130)
		default:
			fatal(err)
		}
	}
	if sh != nil {
		store.Publish(cookieguard.ResultProgress{Done: visited, Total: total, Final: true}, sh.Finalize())
	}
	if *sortOut {
		// (site, vantage, persona) is unique per crawl, so the sort order
		// is total and the emitted file is byte-stable for a fixed seed.
		sort.Slice(buffered, func(i, j int) bool { return buffered[i].site < buffered[j].site })
		for _, r := range buffered {
			w.WriteString(r.line)
			w.WriteByte('\n')
		}
	}
	if *checkpoint != "" {
		if st, ok := p.CheckpointStats(); ok {
			fmt.Fprintf(os.Stderr, "crawl: checkpoint: %d units journaled, %d resumed from journal, %d bytes, %d fsyncs\n",
				st.Records, st.Replayed, st.BytesWritten, st.Fsyncs)
		}
	}
	fmt.Fprintf(os.Stderr, "crawl: %d sites visited, %d complete\n", visited, complete)
	if *serveAddr != "" {
		w.Flush()
		fmt.Fprintln(os.Stderr, "crawl: serving final results; interrupt to exit")
		<-ctx.Done()
		stop()
		shutdown(p)
		fmt.Fprintln(os.Stderr, "crawl: server drained, exiting")
	}
}

// shutdown drains the pipeline's serving side (blocked long-polls
// release, in-flight requests complete) and flushes the checkpoint
// journal, bounded by a drain deadline.
func shutdown(p *cookieguard.Pipeline) {
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "crawl: shutdown:", err)
	}
}

// splitNames parses a comma-separated name list, dropping empties.
func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}
