package crawler

// Tests for the scheduler subsystem: frontier pop order, circuit-breaker
// state transitions on the crawl virtual clock, second-pass
// byte-stability across worker counts, dispatch-time visit shedding,
// and the breaker's retained-visits-per-virtual-second win under a
// flapping-host fault schedule.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/instrument"
	"cookieguard/internal/netsim"
	"cookieguard/internal/webgen"
)

// drainFrontier pops until empty.
func drainFrontier(f Frontier) []int {
	var out []int
	for {
		idx, ok := f.Pop()
		if !ok {
			return out
		}
		out = append(out, idx)
	}
}

// TestFIFOFrontierPopOrder: pops follow push order, and requeues pop
// only after every pushed visit has popped.
func TestFIFOFrontierPopOrder(t *testing.T) {
	f := NewFIFOFrontier()
	for i := 0; i < 5; i++ {
		f.Push(i)
	}
	first, ok := f.Pop()
	if !ok || first != 0 {
		t.Fatalf("first pop = %d,%v, want 0,true", first, ok)
	}
	f.Requeue(first) // requeued immediately: must still pop last
	rest := drainFrontier(f)
	want := []int{1, 2, 3, 4, 0}
	if !reflect.DeepEqual(rest, want) {
		t.Fatalf("pop order = %v, want %v", rest, want)
	}
}

// TestShuffleFrontierDeterministicUnderSeed: the same seed yields the
// same permutation, different seeds differ, requeues stay behind the
// primary set, and every index pops exactly once.
func TestShuffleFrontierDeterministicUnderSeed(t *testing.T) {
	perm := func(seed uint64) []int {
		f := NewShuffleFrontier(seed)
		for i := 0; i < 30; i++ {
			f.Push(i)
		}
		return drainFrontier(f)
	}
	a, b := perm(7), perm(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different pop order:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, perm(8)) {
		t.Fatal("different seeds produced the same permutation")
	}
	seen := map[int]bool{}
	for _, idx := range a {
		if seen[idx] {
			t.Fatalf("index %d popped twice", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 30 {
		t.Fatalf("popped %d distinct indices, want 30", len(seen))
	}

	f := NewShuffleFrontier(7)
	for i := 0; i < 4; i++ {
		f.Push(i)
	}
	f.Requeue(99)
	order := drainFrontier(f)
	if order[len(order)-1] != 99 {
		t.Fatalf("requeue popped before the primary set drained: %v", order)
	}
}

// TestBreakerTransitions walks the circuit state machine on the crawl
// virtual clock: accumulated transient failures open, the cooldown
// half-opens, a failed probe re-opens, a successful probe closes.
func TestBreakerTransitions(t *testing.T) {
	stats := &SchedStats{}
	b := newBreakerState(Breaker{Enabled: true, FailureThreshold: 2, OpenForMs: 10000}, stats)

	fail := func(n int, ms float64) []visitOutcome {
		return []visitOutcome{{idx: 0, pass: 1, virtualMs: ms,
			hosts: []browser.HostOutcome{{Host: "h", Transient: n}}}}
	}
	okv := func(ms float64) []visitOutcome {
		return []visitOutcome{{idx: 0, pass: 1, virtualMs: ms,
			hosts: []browser.HostOutcome{{Host: "h", OK: 1}}}}
	}

	if b.blocked("h") {
		t.Fatal("fresh host blocked")
	}
	b.endRound(fail(1, 1000)) // below threshold
	if b.blocked("h") {
		t.Fatal("opened below FailureThreshold")
	}
	b.endRound(fail(1, 1000)) // cumulative 2 ≥ threshold: open
	if !b.blocked("h") || stats.Opened.Load() != 1 {
		t.Fatalf("circuit did not open (opened=%d)", stats.Opened.Load())
	}
	gate := b.beginRound()
	if gate == nil || gate.Allow("h") || !gate.Allow("elsewhere") {
		t.Fatal("gate snapshot does not shed the open host only")
	}
	if stats.ShedFetches.Load() == 0 {
		t.Fatal("gate shed was not counted")
	}

	// Cooldown: vnow is 2000; advance past openedMs+10000 → half-open,
	// gate empty, probes admitted.
	b.endRound([]visitOutcome{{idx: 1, pass: 1, virtualMs: 12000}})
	if g := b.beginRound(); g != nil {
		t.Fatal("half-open host still gated")
	}
	if stats.Probes.Load() != 1 {
		t.Fatalf("probes = %d, want 1", stats.Probes.Load())
	}
	if b.blocked("h") {
		t.Fatal("half-open host blocked at dispatch")
	}

	// Failed probe → open again.
	b.endRound(fail(1, 1000))
	if !b.blocked("h") || stats.Reopened.Load() != 1 {
		t.Fatal("failed probe did not re-open the circuit")
	}

	// Expire again, then a successful probe closes for good.
	b.endRound([]visitOutcome{{idx: 2, pass: 1, virtualMs: 12000}})
	b.beginRound()
	b.endRound(okv(1000))
	if b.blocked("h") || stats.Reclosed.Load() != 1 {
		t.Fatal("successful probe did not close the circuit")
	}
	b.endRound(fail(1, 1000))
	if b.blocked("h") {
		t.Fatal("failure count was not reset by the successful contact")
	}
}

// schedCrawlJSON crawls a flap-heavy faulted web and returns per-site
// marshalled records plus the sched stats.
func schedCrawlJSON(t *testing.T, w *webgen.Web, sites []string, workers int, opts Options) (map[string]string, SchedSnapshot) {
	t.Helper()
	in := w.BuildInternet()
	in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(0.2, 99)))
	opts.Internet = in
	opts.Workers = workers
	if opts.Stats == nil {
		opts.Stats = &SchedStats{}
	}
	res, err := Crawl(context.Background(), sites, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(res.Logs))
	for _, v := range res.Logs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[v.Site] = string(b)
	}
	return out, opts.Stats.Snapshot()
}

// TestSecondPassByteStableAcrossWorkers: with faults, retries, second
// pass, and the breaker all enabled, per-site records are byte-identical
// across worker counts, and the second pass demonstrably ran (pass-2
// attempt markers in the records, requeue counters non-zero).
func TestSecondPassByteStableAcrossWorkers(t *testing.T) {
	w, sites := buildSites(t, 60)
	opts := Options{
		Interact:   true,
		Seed:       5,
		Retry:      browser.RetryPolicy{MaxAttempts: 2},
		SecondPass: SecondPass{Enabled: true},
		Breaker:    Breaker{Enabled: true, RoundVisits: 8},
	}
	a, sa := schedCrawlJSON(t, w, sites, 7, opts)
	opts.Stats = nil
	b, sb := schedCrawlJSON(t, w, sites, 2, opts)

	if len(a) != len(b) {
		t.Fatalf("site counts differ: %d vs %d", len(a), len(b))
	}
	for site, rec := range a {
		if b[site] != rec {
			t.Fatalf("site %s records differ across worker counts:\n7w: %s\n2w: %s", site, rec, b[site])
		}
	}
	if sa.Requeued == 0 {
		t.Fatal("no visit was requeued; the second pass was not exercised")
	}
	if sa.Requeued != sb.Requeued || sa.ShedFetches != sb.ShedFetches || sa.Opened != sb.Opened {
		t.Fatalf("scheduler decisions differ across worker counts: %+v vs %+v", sa, sb)
	}
	pass2 := false
	for _, rec := range a {
		if strings.Contains(rec, `"attempt":2`) {
			pass2 = true
			break
		}
	}
	if !pass2 {
		t.Fatal("no record carries the pass-2 attempt marker")
	}
}

// TestSecondPassWithoutStats: the public API allows SecondPass (or the
// breaker) without handing in a SchedStats; the crawl must allocate its
// own instead of dereferencing nil on the first requeue.
func TestSecondPassWithoutStats(t *testing.T) {
	w, sites := buildSites(t, 30)
	in := w.BuildInternet()
	in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(0.2, 99)))
	res, err := Crawl(context.Background(), sites, Options{
		Internet:   in,
		Workers:    4,
		Seed:       5,
		SecondPass: SecondPass{Enabled: true},
		// Stats deliberately nil.
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Logs) != 30 {
		t.Fatalf("delivered %d logs, want 30", len(res.Logs))
	}
}

// TestDefaultSchedulerConfigEquivalence is the PR-4 output-equivalence
// guard at the crawler level: the default configuration (no scheduler
// set) and an explicitly configured FIFO frontier emit byte-identical
// per-site records, and a shuffle frontier — different pop order, same
// per-visit inputs — does too.
func TestDefaultSchedulerConfigEquivalence(t *testing.T) {
	w, sites := buildSites(t, 40)
	crawl := func(opts Options) map[string]string {
		t.Helper()
		opts.Internet = w.BuildInternet()
		opts.Workers = 5
		opts.Interact = true
		opts.Seed = 5
		res, err := Crawl(context.Background(), sites, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(res.Logs))
		for _, v := range res.Logs {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out[v.Site] = string(b)
		}
		return out
	}
	def := crawl(Options{})
	fifo := crawl(Options{Scheduler: NewFIFOFrontier})
	shuf := crawl(Options{Scheduler: func() Frontier { return NewShuffleFrontier(3) }})
	if !reflect.DeepEqual(def, fifo) {
		t.Fatal("explicit FIFO frontier diverges from the default configuration")
	}
	if !reflect.DeepEqual(def, shuf) {
		t.Fatal("shuffle frontier changed per-site records (visit bytes must not depend on pop order)")
	}
}

// TestBreakerRetainsMoreVisitsPerVirtualSecond is the acceptance check
// for the breaker: under a flapping-host fault schedule, the
// breaker-enabled crawl retains strictly more visits per virtual-clock
// second than the baseline, because fetches to downed hosts are shed
// instead of burning timeout × retry budget.
func TestBreakerRetainsMoreVisitsPerVirtualSecond(t *testing.T) {
	w, sites := buildSites(t, 80)
	flappy := netsim.FaultConfig{
		Seed:         99,
		PHostFlap:    0.5,
		FlapPeriodMs: 240000,
		FlapDownFrac: 0.5,
	}
	run := func(brk Breaker) (retained int, virtualSec float64) {
		in := w.BuildInternet()
		in.SetFaultModel(netsim.SeededFaults(flappy))
		stats := &SchedStats{}
		res, err := Crawl(context.Background(), sites, Options{
			Internet: in,
			Workers:  6,
			Interact: true,
			Seed:     5,
			Retry:    browser.RetryPolicy{MaxAttempts: 3},
			Breaker:  brk,
			Stats:    stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Logs {
			if v.OK {
				retained++
			}
		}
		return retained, float64(stats.VirtualMs.Load()) / 1000
	}
	baseRetained, baseSec := run(Breaker{})
	// OpenForMs spans the whole crawl: the flap windows are longer than
	// the crawl itself, so probing early would only re-burn timeouts.
	brkRetained, brkSec := run(Breaker{Enabled: true, RoundVisits: 8, OpenForMs: 1e7})
	if baseSec == 0 || brkSec == 0 {
		t.Fatal("virtual time was not accounted")
	}
	baseRate := float64(baseRetained) / baseSec
	brkRate := float64(brkRetained) / brkSec
	t.Logf("baseline: %d retained / %.1f vsec = %.3f; breaker: %d / %.1f = %.3f",
		baseRetained, baseSec, baseRate, brkRetained, brkSec, brkRate)
	if brkRate <= baseRate {
		t.Fatalf("breaker rate %.3f not strictly above baseline %.3f", brkRate, baseRate)
	}
}

// TestCircuitOpenShedsVisits: a URL list with many pages on one dead
// host (the real-crawl shape the dispatch-time shed exists for) loses
// only the first visits to the retry budget; once the circuit opens,
// the rest are shed as "circuit-open" without burning browser attempts.
func TestCircuitOpenShedsVisits(t *testing.T) {
	in := netsim.New()
	for i := 0; i < 4; i++ {
		host := fmt.Sprintf("www.good%02d.com", i)
		in.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "<html><body><script>set_cookie(\"sid\", \"abcdefgh12345678\");</script><img src=\"/px.gif\"></body></html>")
		})
	}
	in.RegisterFunc("www.dead.com", func(w http.ResponseWriter, r *http.Request) {})
	in.Freeze()
	// The dead host times out every attempt, forever.
	in.SetFaultModel(func(req *http.Request) netsim.FaultDecision {
		if req.URL.Hostname() == "www.dead.com" {
			return netsim.FaultDecision{Kind: netsim.FaultTimeout, LatencyMs: 1000}
		}
		return netsim.FaultDecision{}
	})

	var sites []string
	for i := 0; i < 10; i++ {
		sites = append(sites, fmt.Sprintf("https://www.dead.com/p%d", i))
	}
	for i := 0; i < 4; i++ {
		sites = append(sites, fmt.Sprintf("https://www.good%02d.com/", i))
	}
	stats := &SchedStats{}
	res, err := Crawl(context.Background(), sites, Options{
		Internet: in,
		Workers:  3,
		Seed:     5,
		Retry:    browser.RetryPolicy{MaxAttempts: 3},
		Breaker:  Breaker{Enabled: true, FailureThreshold: 3, RoundVisits: 2},
		Stats:    stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	var shed, timedOut, good int
	for _, v := range res.Logs {
		switch v.Failure {
		case "circuit-open":
			shed++
			if len(v.Requests) != 0 {
				t.Fatalf("shed visit performed requests: %+v", v.Requests)
			}
		case "timeout":
			timedOut++
		default:
			if v.OK {
				good++
			}
		}
	}
	if shed == 0 || stats.ShedVisits.Load() == 0 {
		t.Fatalf("no visit was shed (shed=%d, stats=%d)", shed, stats.ShedVisits.Load())
	}
	if timedOut == 0 {
		t.Fatal("expected the pre-open visits to time out")
	}
	if good != 4 {
		t.Fatalf("good sites retained = %d, want 4", good)
	}
	if stats.Opened.Load() == 0 {
		t.Fatal("circuit never opened")
	}
}

// TestVantageCrawlTagsRecords: two vantage crawls over one frozen web
// tag every record with their names and observe different latency
// (region-derived models), while the site sets stay identical.
func TestVantageCrawlTagsRecords(t *testing.T) {
	w, sites := buildSites(t, 20)
	in := w.BuildInternet()
	crawl := func(name string) map[string]float64 {
		t.Helper()
		res, err := Crawl(context.Background(), sites, Options{
			Internet: in,
			Workers:  4,
			Seed:     5,
			Vantages: []netsim.Vantage{{Name: name}},
		})
		if err != nil {
			t.Fatal(err)
		}
		loads := map[string]float64{}
		for _, l := range res.Logs {
			if l.Vantage != name {
				t.Fatalf("record for %s tagged %q, want %q", l.Site, l.Vantage, name)
			}
			if l.OK {
				loads[l.Site] = l.Timing.LoadEvent
			}
		}
		return loads
	}
	eu := crawl("eu-west")
	us := crawl("us-east")
	if len(eu) != len(us) || len(eu) == 0 {
		t.Fatalf("vantage site sets differ: %d vs %d", len(eu), len(us))
	}
	differs := false
	for site, l := range eu {
		if us[site] != l {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("both vantages observed identical load times; region latency not applied")
	}
}

// vantageRecords crawls sites from every vantage and returns marshalled
// records keyed by (site, vantage) plus the sched-stats snapshot.
// multiLane=true runs all vantages as lanes of one crawl; false crawls
// each vantage alone, as its own one-lane crawl over one fabric — the
// reference every multi-lane crawl must reproduce byte for byte.
func vantageRecords(t *testing.T, w *webgen.Web, sites []string, vants []netsim.Vantage, multiLane bool, faultRate float64, opts Options) (map[string]string, SchedSnapshot) {
	t.Helper()
	in := w.BuildInternet()
	if faultRate > 0 {
		in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(faultRate, 99)))
	}
	opts.Internet = in
	if opts.Stats == nil {
		opts.Stats = &SchedStats{}
	}
	out := map[string]string{}
	record := func(logs []instrument.VisitLog) {
		for _, v := range logs {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			k := v.Site + "\x00" + v.Vantage
			if _, dup := out[k]; dup {
				t.Fatalf("duplicate (site, vantage) record %q — vantage tag missing?", k)
			}
			out[k] = string(b)
		}
	}
	if multiLane {
		o := opts
		o.Vantages = vants
		res, err := Crawl(context.Background(), sites, o)
		if err != nil {
			t.Fatal(err)
		}
		record(res.Logs)
	} else {
		for _, v := range vants {
			o := opts
			o.Vantages = []netsim.Vantage{v}
			res, err := Crawl(context.Background(), sites, o)
			if err != nil {
				t.Fatal(err)
			}
			record(res.Logs)
		}
	}
	return out, opts.Stats.Snapshot()
}

// diffRecords fails the test on the first (site, vantage) whose records
// differ between two crawl modes.
func diffRecords(t *testing.T, want, got map[string]string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(want), len(got))
	}
	for k, rec := range want {
		if got[k] != rec {
			t.Fatalf("%s: records differ for %q:\nwant: %s\ngot:  %s", label, strings.ReplaceAll(k, "\x00", "@"), rec, got[k])
		}
	}
}

// TestVantageParallelByteIdenticalToSequential: on a clean web, a
// multi-vantage crawl emits records byte-identical to crawling each
// vantage alone as a one-lane crawl, at every worker count.
func TestVantageParallelByteIdenticalToSequential(t *testing.T) {
	w, sites := buildSites(t, 40)
	vants := []netsim.Vantage{{Name: "eu-west"}, {Name: "us-east"}}
	opts := Options{Interact: true, Seed: 5, Workers: 5}
	alone, _ := vantageRecords(t, w, sites, vants, false, 0, opts)
	for _, workers := range []int{2, 7} {
		o := opts
		o.Workers = workers
		multi, _ := vantageRecords(t, w, sites, vants, true, 0, o)
		diffRecords(t, alone, multi, fmt.Sprintf("multi-lane@%dw vs one-lane", workers))
	}
}

// TestVantageParallelFaultedByteStable: the full scheduler stack —
// 10% faults, retries, per-lane breaker, second pass — stays
// byte-identical between one-lane crawls of each vantage and one
// multi-vantage crawl across worker counts, and the per-vantage
// SchedStats breakdown (every breaker and second-pass decision)
// matches decision for decision.
func TestVantageParallelFaultedByteStable(t *testing.T) {
	w, sites := buildSites(t, 40)
	vants := []netsim.Vantage{{Name: "eu-west"}, {Name: "us-east"}}
	opts := Options{
		Interact:   true,
		Seed:       5,
		Workers:    5,
		Retry:      browser.RetryPolicy{MaxAttempts: 3},
		SecondPass: SecondPass{Enabled: true},
		Breaker:    Breaker{Enabled: true, RoundVisits: 8},
	}
	alone, aloneStats := vantageRecords(t, w, sites, vants, false, 0.1, opts)
	for _, workers := range []int{2, 7} {
		o := opts
		o.Workers = workers
		multi, multiStats := vantageRecords(t, w, sites, vants, true, 0.1, o)
		diffRecords(t, alone, multi, fmt.Sprintf("faulted multi-lane@%dw vs one-lane", workers))
		if !reflect.DeepEqual(aloneStats, multiStats) {
			t.Fatalf("scheduler decisions differ from one-lane crawls at %d workers:\none-lane: %+v\nmulti:    %+v", workers, aloneStats, multiStats)
		}
	}
	if len(aloneStats.Vantages) != 2 {
		t.Fatalf("per-vantage breakdown has %d entries, want 2", len(aloneStats.Vantages))
	}
	var childVisits int64
	for _, vs := range aloneStats.Vantages {
		childVisits += vs.Visits
	}
	if childVisits != aloneStats.Visits || aloneStats.Visits == 0 {
		t.Fatalf("per-vantage Visits sum %d != total %d", childVisits, aloneStats.Visits)
	}
}

// TestVantageParallelCrawlBlockOrder: Crawl with Options.Vantages
// returns consecutive per-vantage blocks in list order — exactly the
// concatenation of one-lane crawls of each vantage.
func TestVantageParallelCrawlBlockOrder(t *testing.T) {
	w, sites := buildSites(t, 15)
	res, err := Crawl(context.Background(), sites, Options{
		Internet: w.BuildInternet(),
		Workers:  4,
		Seed:     5,
		Vantages: []netsim.Vantage{{Name: "eu-west"}, {Name: "us-east"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Logs) != 2*len(sites) {
		t.Fatalf("got %d logs, want %d", len(res.Logs), 2*len(sites))
	}
	for i, l := range res.Logs {
		wantVant := "eu-west"
		if i >= len(sites) {
			wantVant = "us-east"
		}
		if l.Vantage != wantVant {
			t.Fatalf("log %d tagged %q, want %q", i, l.Vantage, wantVant)
		}
		if l.URL != sites[i%len(sites)] {
			t.Fatalf("log %d is %q, want %q", i, l.URL, sites[i%len(sites)])
		}
	}
}

// TestVantageParallelProgressMonotonic: a multi-vantage crawl's
// Progress reports one monotonically increasing done out of sites × vantages —
// no per-vantage restart.
func TestVantageParallelProgressMonotonic(t *testing.T) {
	w, sites := buildSites(t, 30)
	last := 0
	_, err := Crawl(context.Background(), sites, Options{
		Internet: w.BuildInternet(),
		Workers:  4,
		Seed:     5,
		Vantages: []netsim.Vantage{{Name: "eu-west"}, {Name: "us-east"}},
		Progress: func(done, total int) {
			// Serialized by the delivery lock, so plain closure state is safe.
			if total != 2*len(sites) {
				t.Errorf("total = %d, want %d", total, 2*len(sites))
			}
			if done != last+1 {
				t.Errorf("done jumped %d -> %d", last, done)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 2*len(sites) {
		t.Fatalf("final done = %d, want %d", last, 2*len(sites))
	}
}

// TestAutopilotLearnsThresholdAndBackoff drives the breaker state
// directly: regular failure spacing teaches the inter-failure EWMA,
// which tightens the threshold for fast flappers and relaxes it for
// sparse failers, while consecutive failed probes double the cooldown.
func TestAutopilotLearnsThresholdAndBackoff(t *testing.T) {
	cfg := Breaker{Enabled: true, Autopilot: true, FailureThreshold: 3, OpenForMs: 10000}
	fail := func(b *breakerState, ms float64) {
		b.endRound([]visitOutcome{{idx: 0, pass: 1, virtualMs: ms,
			hosts: []browser.HostOutcome{{Host: "h", Transient: 1}}}})
	}

	// Fast flapper: failures every 2000 virtual ms (≤ OpenForMs) step
	// the threshold down by one.
	b := newBreakerState(cfg, &SchedStats{})
	fail(b, 2000)
	fail(b, 2000)
	c := b.hosts["h"]
	if c.ifiSamples == 0 {
		t.Fatal("no inter-failure interval learned")
	}
	if got := b.thresholdFor(c); got != cfg.threshold()-1 {
		t.Fatalf("flapper threshold = %d, want %d", got, cfg.threshold()-1)
	}

	// Sparse failer: failures every 50000 virtual ms (≥ 4× OpenForMs)
	// step it up.
	b2 := newBreakerState(cfg, &SchedStats{})
	fail(b2, 50000)
	fail(b2, 50000)
	if got := b2.thresholdFor(b2.hosts["h"]); got != cfg.threshold()+1 {
		t.Fatalf("sparse threshold = %d, want %d", got, cfg.threshold()+1)
	}

	// Backoff: every consecutive reopen doubles the cooldown, capped.
	c.reopens = 0
	base := b.openForMs(c)
	c.reopens = 1
	if got := b.openForMs(c); got != 2*base {
		t.Fatalf("one reopen: cooldown %v, want %v", got, 2*base)
	}
	c.reopens = 30
	if got, cap := b.openForMs(c), cfg.openFor()*autopilotBackoffCap; got != cap {
		t.Fatalf("capped cooldown %v, want %v", got, cap)
	}
	// Fixed-constant mode ignores all learned state.
	fixed := newBreakerState(Breaker{Enabled: true, FailureThreshold: 3, OpenForMs: 10000}, &SchedStats{})
	fc := &circuit{reopens: 5, ifiSamples: 9, ifiEwmaMs: 1}
	if fixed.thresholdFor(fc) != 3 || fixed.openForMs(fc) != 10000 {
		t.Fatal("fixed-constant breaker consulted autopilot state")
	}
}

// TestAutopilotDeterministicAcrossWorkers: learned thresholds are a
// pure function of the seeded fault schedule — the same seed produces
// the same records and the same open/close transition counts across
// runs and worker counts.
func TestAutopilotDeterministicAcrossWorkers(t *testing.T) {
	w, sites := buildSites(t, 60)
	flappy := netsim.FaultConfig{
		Seed:         99,
		PHostFlap:    0.5,
		FlapPeriodMs: 240000,
		FlapDownFrac: 0.5,
	}
	run := func(workers int) (map[string]string, SchedSnapshot) {
		in := w.BuildInternet()
		in.SetFaultModel(netsim.SeededFaults(flappy))
		stats := &SchedStats{}
		res, err := Crawl(context.Background(), sites, Options{
			Internet: in,
			Workers:  workers,
			Interact: true,
			Seed:     5,
			Retry:    browser.RetryPolicy{MaxAttempts: 3},
			Breaker:  Breaker{Enabled: true, RoundVisits: 8, Autopilot: true},
			Stats:    stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(res.Logs))
		for _, v := range res.Logs {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out[v.Site] = string(b)
		}
		return out, stats.Snapshot()
	}
	recA, statsA := run(6)
	recB, statsB := run(6)
	recC, statsC := run(2)
	diffRecords(t, recA, recB, "autopilot rerun")
	diffRecords(t, recA, recC, "autopilot 6w vs 2w")
	if !reflect.DeepEqual(statsA, statsB) || !reflect.DeepEqual(statsA, statsC) {
		t.Fatalf("transition counts differ:\nrun A: %+v\nrun B: %+v\nrun C: %+v", statsA, statsB, statsC)
	}
	if statsA.Opened == 0 {
		t.Fatal("autopilot breaker never opened a circuit; schedule not flappy enough to exercise it")
	}
}

// TestAutopilotRetainsMoreVisitsPerVirtualSecond: on a flapping-host
// schedule the autopilot breaker — which learns each host's flap period
// and backs probes off exponentially while it stays down — retains at
// least as many visits per virtual-clock second as the fixed-constant
// default, and strictly beats the no-breaker baseline.
func TestAutopilotRetainsMoreVisitsPerVirtualSecond(t *testing.T) {
	w, sites := buildSites(t, 80)
	flappy := netsim.FaultConfig{
		Seed:         99,
		PHostFlap:    0.5,
		FlapPeriodMs: 240000,
		FlapDownFrac: 0.5,
	}
	run := func(brk Breaker) (retained int, virtualSec float64) {
		in := w.BuildInternet()
		in.SetFaultModel(netsim.SeededFaults(flappy))
		stats := &SchedStats{}
		res, err := Crawl(context.Background(), sites, Options{
			Internet: in,
			Workers:  6,
			Interact: true,
			Seed:     5,
			Retry:    browser.RetryPolicy{MaxAttempts: 3},
			Breaker:  brk,
			Stats:    stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Logs {
			if v.OK {
				retained++
			}
		}
		return retained, float64(stats.VirtualMs.Load()) / 1000
	}
	baseRetained, baseSec := run(Breaker{})
	fixedRetained, fixedSec := run(Breaker{Enabled: true, RoundVisits: 8})
	autoRetained, autoSec := run(Breaker{Enabled: true, RoundVisits: 8, Autopilot: true})
	baseRate := float64(baseRetained) / baseSec
	fixedRate := float64(fixedRetained) / fixedSec
	autoRate := float64(autoRetained) / autoSec
	t.Logf("baseline: %d/%.1fs = %.3f; fixed: %d/%.1fs = %.3f; autopilot: %d/%.1fs = %.3f",
		baseRetained, baseSec, baseRate, fixedRetained, fixedSec, fixedRate, autoRetained, autoSec, autoRate)
	if autoRate < fixedRate {
		t.Fatalf("autopilot rate %.3f below fixed-constant rate %.3f", autoRate, fixedRate)
	}
	if autoRate <= baseRate {
		t.Fatalf("autopilot rate %.3f not strictly above no-breaker baseline %.3f", autoRate, baseRate)
	}
}
