package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cookieguard"
	"cookieguard/internal/analysis"
	"cookieguard/internal/netsim"
	"cookieguard/internal/resultstore"
)

// crawlSpec is one pipeline a workload crawls per repetition.
type crawlSpec struct {
	name string
	// opts builds the pipeline's options; dir is a fresh empty
	// directory the crawl may journal into.
	opts    func(seed uint64, dir string) []cookieguard.Option
	journal bool
}

// workload is one named benchmark input.
type workload struct {
	name, why string
	// Each repetition crawls webs new webs of sites sites each, so a
	// run covers many distinct sites (which steadies the per-unit
	// figures across seeds) in crawls short enough to repeat.
	webs, sites int
	crawls      []crawlSpec
	// live crawls on the snapshot-publishing path with an open-loop
	// reader at readRate running during the crawl. Otherwise the final
	// Results are published after Run and a closed-loop reader (a
	// dashboard polling back to back) makes postReads requests once the
	// crawl is over.
	live      bool
	postReads int
	readRate  float64
	// guardPairs marks crawls that come in (measurement, CookieGuard)
	// pairs over the same web: the guard's effect and overhead are read
	// from each pair.
	guardPairs bool
}

// snapshotEvery is the live workload's publish cadence in observed units.
const snapshotEvery = 16

// postReads is the length of the dashboard session that reads a crawl's
// final Results over a new connection. Its first read opens the
// connection and its first read of each of the five cached views
// encodes that view: 6 of every 100 reads, so the p99 the workload
// reports lies inside that population rather than at its edge.
const postReads = 100

func nproc() int { return runtime.NumCPU() }

// liveWorkers leaves one CPU to the readers and the server, so read
// latency measures the program rather than the Go scheduler's queue.
func liveWorkers() int { return max(1, nproc()-1) }

var workloads = []workload{
	{
		name:  "study",
		why:   "the paper's experiment, a measurement crawl then a CookieGuard crawl: per-visit layers, analysis.Observe and guard do the work; results read back after each crawl",
		webs:  5,
		sites: 240,
		crawls: []crawlSpec{
			{name: "measure", opts: func(uint64, string) []cookieguard.Option {
				return []cookieguard.Option{cookieguard.WithInteract(true), cookieguard.WithWorkers(nproc())}
			}},
			{name: "guard", opts: func(uint64, string) []cookieguard.Option {
				return []cookieguard.Option{cookieguard.WithInteract(true), cookieguard.WithWorkers(nproc()),
					cookieguard.WithGuard(cookieguard.DefaultGuardPolicy())}
			}},
		},
		postReads:  postReads,
		guardPairs: true,
	},
	{
		name:  "resilient",
		why:   "faulted production crawl: retries, breaker autopilot, second pass, two vantages, two personas and the journal do real work; a quarter of units fail",
		webs:  4,
		sites: 200,
		crawls: []crawlSpec{{name: "resilient", journal: true, opts: func(seed uint64, dir string) []cookieguard.Option {
			return []cookieguard.Option{
				cookieguard.WithInteract(true), cookieguard.WithWorkers(nproc()),
				cookieguard.WithFaults(cookieguard.UniformFaults(0.1, seed)),
				cookieguard.WithRetryPolicy(cookieguard.DefaultRetryPolicy()),
				cookieguard.WithSecondPass(true), cookieguard.WithBreakerAutopilot(),
				cookieguard.WithVantages(cookieguard.RegionVantage("eu-west", 0.1, seed), cookieguard.RegionVantage("us-east", 0.1, seed)),
				cookieguard.WithPersonas("accept", "reject"),
				cookieguard.WithCheckpoint(dir),
			}
		}}},
		postReads: postReads,
	},
	{
		name:  "live",
		why:   "served crawl, nproc-1 workers, under a 200/s open-loop reader and a blocking follower: snapshot merge, publish/wake and encoding run under load",
		webs:  3,
		sites: 300,
		crawls: []crawlSpec{{name: "live", opts: func(uint64, string) []cookieguard.Option {
			return []cookieguard.Option{cookieguard.WithInteract(true), cookieguard.WithWorkers(liveWorkers()),
				cookieguard.WithSnapshotEvery(snapshotEvery)}
		}}},
		live: true,
		// A synthetic rate: 0.6% of the ~32k cached polls/s the server
		// sustains (ROADMAP), so the reads see the crawl's load, not a
		// saturated server. The reader runs while the crawls do, so a 24 s
		// run sends about 4,300 reads.
		readRate: 200,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// crawlOut is what one crawl of one pipeline produced.
type crawlOut struct {
	setup      time.Duration
	units      int
	incomplete int
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	virtualMs  int64
	hash       string
	exfilPct   float64 // share of sites with an exfiltration action
	reads      []readSample
	monotonic  bool
	fresh      []float64
	runtimeCPU cpuMetrics         // the runtime's CPU-class estimates during the crawl
	layer      map[string]float64 // traced crawls only
}

// rep is one repetition: every crawl of the workload over every web of
// one web set, web-major (slot = web*len(crawls) + crawl).
type rep struct {
	traced bool
	set    int
	crawls []crawlOut
}

// crawlKey names one crawl of a run: a slot of a web set.
type crawlKey struct{ set, slot int }

func (r rep) sum(f func(c crawlOut) float64) float64 {
	var t float64
	for _, c := range r.crawls {
		t += f(c)
	}
	return t
}

func (r rep) units() float64 { return r.sum(func(c crawlOut) float64 { return float64(c.units) }) }

func (r rep) unitsPerS() float64 {
	return r.units() / r.sum(func(c crawlOut) float64 { return c.wall.Seconds() })
}

// bench runs one workload at one seed.
type bench struct {
	w        workload
	seed     uint64
	seconds  time.Duration
	traced   bool
	tmp      string
	epoch    time.Time
	tr       *tracer
	sites    map[crawlKey][]string // site-endpoint candidates, from a crawl's first Results
	hashes   map[crawlKey]string   // StableJSON hash of each crawl's first run
	problems []string              // failed output checks
	profile  map[string]int64      // flat CPU-profile samples of traced crawls, by function
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// processCPU and peakRSSMB read getrusage, which for RUSAGE_SELF fails
// only on a bad pointer.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// progress records when the WithProgress count reached each value.
type progress struct {
	epoch time.Time
	mu    sync.Mutex
	at    []time.Duration
	last  int
	total int
}

func (p *progress) record(done, total int) {
	now := time.Since(p.epoch)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.at) <= done {
		p.at = append(p.at, 0)
	}
	p.at[done] = now
	p.last, p.total = done, total
}

func (p *progress) snapshot() (at []time.Duration, last, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.at...), p.last, p.total
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// crawl builds one pipeline, crawls it, publishes and reads its results
// over HTTP, and checks the outputs. A traced crawl replays Run from the
// public parts (Stream and an analyzer) with spans around each layer
// call and per-layer counters.
func (b *bench) crawl(ctx context.Context, k crawlKey, traced bool, parent int) (crawlOut, error) {
	spec := b.w.crawls[k.slot%len(b.w.crawls)]
	seed := webSeed(b.seed, k.set, k.slot/len(b.w.crawls))
	var out crawlOut
	tr := b.tr
	if !traced {
		tr = nil
	}
	dir, err := os.MkdirTemp(b.tmp, "crawl-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	prog := &progress{epoch: b.epoch}
	opts := append([]cookieguard.Option{cookieguard.WithSites(b.w.sites), cookieguard.WithSeed(seed)}, spec.opts(seed, dir)...)
	opts = append(opts, cookieguard.WithProgress(prog.record))
	shim := &jarShim{}
	if traced {
		opts = append(opts, cookieguard.WithMiddleware(shim.factory))
	}

	// Each pipeline starts from a collected heap with freed memory back
	// with the OS, so set-up time and peak RSS are one crawl's, not the
	// run's history.
	debug.FreeOSMemory()
	sp := tr.start("setup", parent)
	t0 := time.Now()
	p := cookieguard.New(opts...)
	out.setup = time.Since(t0)
	tr.end(sp)
	if traced {
		b.timeBuilds(p.Web.Config, parent)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := p.Shutdown(sctx); err != nil {
			b.fail("%s: shutdown: %v", spec.name, err)
		}
	}()

	addr, err := p.StartServer("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	base := "http://" + addr
	follower, readerConn := oneConn(), oneConn()
	defer follower.CloseIdleConnections()
	defer readerConn.CloseIdleConnections()
	rd := &reader{client: readerConn, base: base, rate: b.w.readRate, sites: b.readSites(p, k),
		rng: rand.New(rand.NewPCG(seed, uint64(k.slot))), epoch: b.epoch}

	type followed struct {
		rs  []receipt
		err error
	}
	fctx, fcancel := context.WithTimeout(ctx, 60*time.Second)
	defer fcancel()
	fch := make(chan followed, 1)
	go func() {
		rs, err := follow(fctx, follower, base, b.epoch)
		fch <- followed{rs, err}
	}()
	var waker *waker
	if traced {
		waker = startWaker(fctx, p.ResultStore())
	}

	// The live reader runs for the whole crawl.
	stopReads := make(chan struct{})
	readDone := make(chan struct{})
	if b.w.live {
		go func() {
			defer close(readDone)
			out.reads, out.monotonic = rd.run(ctx, stopReads, 0, false)
		}()
	} else {
		close(readDone)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	net0, faults0 := p.Net.Requests(), p.Net.Faults()
	pool0 := p.PoolStats()
	var tapped, tapped5xx atomic.Int64
	if traced {
		p.Net.Tap(func(ex netsim.Exchange) {
			tapped.Add(1)
			if ex.Response != nil && ex.Response.StatusCode >= 500 {
				tapped5xx.Add(1)
			}
		})
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cs := tr.start("crawl", parent)
	rt0, cpu0, w0 := readCPUMetrics(), processCPU(), time.Now()
	var (
		res    *cookieguard.Results
		events int64
	)
	switch {
	case !traced:
		res, err = p.Run(ctx)
	case b.w.live:
		res, events, err = b.replayServed(ctx, p, cs, waker)
	default:
		res, events, err = b.replayRun(ctx, p, cs)
	}
	out.wall, out.cpu = time.Since(w0), processCPU()-cpu0
	out.runtimeCPU = readCPUMetrics().sub(rt0)
	tr.end(cs)
	if traced {
		pprof.StopCPUProfile()
		flat, perr := flatByFunction(prof.Bytes())
		if perr != nil {
			return out, perr
		}
		for fn, n := range flat {
			b.profile[fn] += n
		}
	}
	runtime.ReadMemStats(&ms1)
	close(stopReads)
	<-readDone
	if err != nil {
		return out, fmt.Errorf("%s: crawl: %w", spec.name, err)
	}
	if !b.w.live {
		// Off the publishing path the store only ever holds the final
		// Results, published as soon as the crawl has returned them.
		_, last, total := prog.snapshot()
		b.publish(p.ResultStore(), tr, waker, parent, resultstore.Progress{Done: last, Total: total, Final: true}, res)
	}
	out.exfilPct = res.SitePct(analysis.ActExfiltration)
	b.noteSites(k, res)
	out.units = res.Summary.SitesTotal
	out.incomplete = res.Summary.SitesTotal - res.Summary.SitesComplete
	out.mallocs, out.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	sched := p.SchedStats()
	out.virtualMs = sched.VirtualMs

	sj := tr.start("analysis.stable_json", parent)
	stable, err := res.StableJSON()
	tr.end(sj)
	if err != nil {
		return out, err
	}
	out.hash = hashOf(stable)

	f := <-fch
	if f.err != nil {
		return out, fmt.Errorf("%s: %w", spec.name, f.err)
	}
	at, _, _ := prog.snapshot()
	var fresh []float64
	ok := len(f.rs) > 0
	switch {
	case b.w.live:
		fresh, ok = freshness(at, f.rs)
	case ok:
		// The store holds only the final Results, so every unit's
		// data becomes readable with that one snapshot.
		fresh, ok = staleness(at, f.rs[len(f.rs)-1])
	}
	if !ok {
		b.fail("%s: freshness join: no snapshot, or one names a progress count the crawl never reported", spec.name)
	}
	out.fresh = fresh
	if !b.w.live {
		rd.sites = b.readSites(p, k)
		// The read phase measures the server, not the tail of the
		// crawl's garbage collection.
		runtime.GC()
		out.reads, out.monotonic = rd.run(ctx, nil, b.w.postReads, true)
	}
	if !out.monotonic {
		b.fail("%s: X-Result-Index went back on the reader connection", spec.name)
	}
	status, _, body, err := get(ctx, readerConn, base+"/v1/results")
	if err != nil || status != 200 || !bytes.Equal(body, stable) {
		b.fail("%s: final /v1/results differs from Run's StableJSON (status %d, err %v)", spec.name, status, err)
	}
	if spec.journal {
		// One record per attempted unit: every emitted unit, plus the
		// first-pass attempt of each unit the second pass re-crawled.
		js, on := p.CheckpointStats()
		if attempted := int64(out.units) + sched.Requeued; !on || js.Records != attempted {
			b.fail("%s: journal records %d, units attempted %d", spec.name, js.Records, attempted)
		}
	}

	if traced {
		out.layer = map[string]float64{}
		u := float64(out.units)
		l := out.layer
		l["crawler.shed_frac"] = float64(sched.ShedVisits) / u
		l["crawler.requeue_frac"] = float64(sched.Requeued) / u
		l["crawler.second_pass_kept_frac"] = ratio(float64(sched.SecondPassKept), float64(sched.Requeued))
		l["crawler.circuits_opened"] = float64(sched.Opened)
		req := float64(p.Net.Requests() - net0)
		l["netsim.requests_per_unit"] = req / u
		l["netsim.fault_frac"] = ratio(float64(p.Net.Faults()-faults0), req)
		l["netsim.tapped_5xx_frac"] = ratio(float64(tapped5xx.Load()), float64(tapped.Load()))
		c := p.CacheStats()
		l["artifact.program_hit_frac"] = ratio(float64(c.ProgramHits), float64(c.ProgramHits+c.ProgramMisses))
		l["artifact.dom_hit_frac"] = ratio(float64(c.DOMHits), float64(c.DOMHits+c.DOMMisses))
		l["artifact.body_hit_frac"] = ratio(float64(c.BodyHits), float64(c.BodyHits+c.BodyMisses))
		pool := p.PoolStats()
		acq := float64(pool.PageAcquired + pool.InterpAcquired + pool.ArenaAcquired - pool0.PageAcquired - pool0.InterpAcquired - pool0.ArenaAcquired)
		alloc := float64(pool.PageAllocated + pool.InterpAllocated + pool.ArenaAllocated - pool0.PageAllocated - pool0.InterpAllocated - pool0.ArenaAllocated)
		l["browser.pool_reuse_frac"] = ratio(acq-alloc, acq)
		l["jsdsl.interps_per_unit"] = float64(pool.InterpAcquired-pool0.InterpAcquired) / u
		l["dom.arenas_per_unit"] = float64(pool.ArenaAcquired-pool0.ArenaAcquired) / u
		l["instrument.events_per_unit"] = float64(events) / u
		l["cookiejar.ops_per_unit"] = float64(shim.ops.Load()) / u
		l["cookiejar.ns_per_op"] = ratio(float64(shim.ns.Load()), float64(shim.ops.Load()))
		js, _ := p.CheckpointStats()
		l["journal.records_per_unit"] = float64(js.Records) / u
		l["journal.bytes_per_unit"] = float64(js.BytesWritten) / u
		l["journal.fsyncs_per_1k_units"] = float64(js.Fsyncs) * 1000 / u
		l["resultstore.publishes"] = float64(p.ResultStore().Index())
		l["resultstore.wake_ms"] = median(waker.stop())
		encode, cached := serverTimes(out.reads)
		l["server.encode_ms"], l["server.cached_ms"] = median(encode), median(cached)
		b.replayVisits(p, parent)
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readSites picks a crawl's site-endpoint candidates: the sites its
// first run analyzed, else (during that first run) the ranked site list.
func (b *bench) readSites(p *cookieguard.Pipeline, k crawlKey) []string {
	if s := b.sites[k]; len(s) > 0 {
		return s
	}
	var out []string
	for _, e := range p.SiteList() {
		out = append(out, e.Domain)
	}
	return out
}

// noteSites records a crawl's site-endpoint candidates from its first
// Results: every site with a recorded action.
func (b *bench) noteSites(k crawlKey, res *cookieguard.Results) {
	if len(b.sites[k]) > 0 {
		return
	}
	var sites []string
	for site := range res.SiteActions {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	b.sites[k] = sites
}

// webSeed is the seed of web j of web set `set` of a run. Every set is
// new webs, so a run covers more distinct sites the more sets it
// crawls; different run seeds give disjoint webs.
func webSeed(seed uint64, set, j int) uint64 { return seed<<16 | uint64(set)<<8 | uint64(j+1) }

// serverTimes splits versioned table reads into the first read of an
// endpoint at a new index (which encodes) and repeat reads (served from
// the per-index cache), by service time in ms.
func serverTimes(reads []readSample) (encode, cached []float64) {
	seen := map[int]uint64{}
	for _, s := range reads {
		if !endpoints[s.endpoint].cached || !s.ok {
			continue
		}
		if last, ok := seen[s.endpoint]; !ok || s.index > last {
			encode = append(encode, ms(s.service()))
			seen[s.endpoint] = s.index
		} else {
			cached = append(cached, ms(s.service()))
		}
	}
	return encode, cached
}

// publish publishes a snapshot, noting its start for the wake-lag probe.
func (b *bench) publish(store *cookieguard.ResultStore, tr *tracer, w *waker, parent int, pr resultstore.Progress, res *cookieguard.Results) {
	w.publishing(store.Index() + 1)
	sp := tr.start("resultstore.publish", parent)
	store.Publish(pr, res)
	tr.end(sp)
}

// replayRun is Run's single-analyzer path rebuilt from Stream and
// NewAnalyzer, with spans around the channel wait, Observe and Finalize.
func (b *bench) replayRun(ctx context.Context, p *cookieguard.Pipeline, parent int) (*cookieguard.Results, int64, error) {
	tr := b.tr
	an := p.NewAnalyzer()
	logs, errs := p.Stream(ctx)
	var events int64
	for {
		w := tr.start("crawler.wait", parent)
		v, ok := <-logs
		tr.end(w)
		if !ok {
			break
		}
		events += int64(len(v.Cookies))
		o := tr.start("analysis.observe", parent)
		an.Observe(v)
		tr.end(o)
	}
	if err := <-errs; err != nil {
		return nil, 0, err
	}
	f := tr.start("analysis.finalize", parent)
	res := an.Finalize()
	tr.end(f)
	return res, events, nil
}

// replayServed is Run's publishing path rebuilt from Stream,
// NewShardedAnalyzer and ResultStore().Publish: one observer per shard,
// a merged snapshot published every snapshotEvery observed units, and
// the finalized Results published last.
func (b *bench) replayServed(ctx context.Context, p *cookieguard.Pipeline, parent int, w *waker) (*cookieguard.Results, int64, error) {
	tr := b.tr
	store := p.ResultStore()
	shards := liveWorkers() // Run's publishing path: one shard per worker
	sh := p.NewShardedAnalyzer(shards)
	total := len(p.Web.Sites)
	logs, errs := p.Stream(ctx)
	var (
		observed, events atomic.Int64
		pubMu            sync.Mutex
		wg               sync.WaitGroup
	)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				ws := tr.start("crawler.wait", parent)
				v, ok := <-logs
				tr.end(ws)
				if !ok {
					return
				}
				events.Add(int64(len(v.Cookies)))
				o := tr.start("analysis.observe", parent)
				sh.Observe(shard, v)
				tr.end(o)
				if n := observed.Add(1); n%snapshotEvery == 0 {
					pubMu.Lock()
					s := tr.start("analysis.snapshot", parent)
					snap := sh.Snapshot()
					tr.end(s)
					b.publish(store, tr, w, parent, resultstore.Progress{Done: int(n), Total: total}, snap)
					pubMu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if err := <-errs; err != nil {
		return nil, 0, err
	}
	f := tr.start("analysis.finalize", parent)
	res := sh.Finalize()
	tr.end(f)
	b.publish(store, tr, w, parent, resultstore.Progress{Done: int(observed.Load()), Total: total, Final: true}, res)
	return res, events.Load(), nil
}

// waker is the in-process Wait probe: it blocks on the store like a
// long-poll and records how long after each publish began it woke.
type waker struct {
	mu    sync.Mutex
	start map[uint64]time.Time
	lags  []float64
	done  chan struct{}
}

func startWaker(ctx context.Context, store *resultstore.Store) *waker {
	w := &waker{start: map[uint64]time.Time{}, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var index uint64
		for ctx.Err() == nil {
			snap := store.Wait(ctx, index, 20*time.Second)
			now := time.Now()
			if snap.Index > index {
				w.mu.Lock()
				if t, ok := w.start[snap.Index]; ok {
					w.lags = append(w.lags, ms(now.Sub(t)))
				}
				w.mu.Unlock()
				index = snap.Index
			}
			if snap.Progress.Final {
				return
			}
		}
	}()
	return w
}

// publishing notes that the publish of index is about to start.
func (w *waker) publishing(index uint64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.start[index] = time.Now()
	w.mu.Unlock()
}

// stop waits for the probe to see the final snapshot and returns its lags.
func (w *waker) stop() []float64 {
	if w == nil {
		return nil
	}
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lags
}

// repetition runs every crawl of the workload once.
func (b *bench) repetition(ctx context.Context, traced bool, set int) (rep, error) {
	r := rep{traced: traced, set: set}
	root := 0
	if traced {
		root = b.tr.start("rep", 0)
		defer b.tr.end(root)
	}
	for slot := 0; slot < b.w.webs*len(b.w.crawls); slot++ {
		c, err := b.crawl(ctx, crawlKey{set, slot}, traced, root)
		if err != nil {
			return r, err
		}
		r.crawls = append(r.crawls, c)
	}
	b.checkRep(r)
	return r, nil
}

// checkRep applies the per-repetition output checks: a crawl run
// before (traced where this one is not, or the reverse) must give the
// same StableJSON bytes.
func (b *bench) checkRep(r rep) {
	for slot, c := range r.crawls {
		k := crawlKey{r.set, slot}
		ref, seen := b.hashes[k]
		if !seen {
			b.hashes[k] = c.hash
			continue
		}
		if c.hash != ref {
			b.fail("%s set %d web %d: StableJSON hash %s differs from the earlier run's %s (traced=%v)",
				b.w.crawls[slot%len(b.w.crawls)].name, r.set, slot/len(b.w.crawls), c.hash[:12], ref[:12], r.traced)
		}
	}
	if b.w.guardPairs {
		for i := 0; i+1 < len(r.crawls); i += 2 {
			m, g := r.crawls[i].exfilPct, r.crawls[i+1].exfilPct
			if !(g < m) {
				b.fail("web %d: guarded exfiltration %.1f%% not below measurement %.1f%%", i/2, g, m)
			}
		}
	}
}
