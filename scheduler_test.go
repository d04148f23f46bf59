package cookieguard

// Pipeline-level tests for the scheduler subsystem: the default-config
// output-equivalence guard, multi-vantage runs over one frozen web and
// one artifact cache, and the per-vantage analysis tables.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// crawlBySite marshals a pipeline crawl into per-(site,vantage) records.
func crawlBySite(t *testing.T, p *Pipeline) map[string]string {
	t.Helper()
	logs, err := p.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(logs))
	for _, l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		out[l.Site+"\x00"+l.Vantage] = string(b)
	}
	return out
}

// TestDefaultConfigSchedulerEquivalence is the PR-4 output-equivalence
// acceptance test at the public-API level: the default configuration
// and the same pipeline with the scheduler subsystem spelled out
// explicitly (FIFO frontier, breaker off, second pass off, one default
// vantage) emit byte-identical per-site records.
func TestDefaultConfigSchedulerEquivalence(t *testing.T) {
	base := []Option{WithSites(40), WithWorkers(6), WithInteract(true), WithSeed(11)}
	def := crawlBySite(t, New(base...))
	explicit := crawlBySite(t, New(append(base,
		WithScheduler(NewFIFOFrontier),
		WithSecondPass(false),
		WithBreaker(Breaker{}),
		WithVantages(Vantage{}),
	)...))
	if len(def) != len(explicit) {
		t.Fatalf("record counts differ: %d vs %d", len(def), len(explicit))
	}
	for k, rec := range def {
		if explicit[k] != rec {
			t.Fatalf("record %q differs between default and explicit scheduler config:\n%s\n%s",
				k, rec, explicit[k])
		}
	}
	if len(def) != 40 {
		t.Fatalf("crawled %d records, want 40", len(def))
	}
}

// TestWithVantagesPerVantageTables: a two-vantage run over one frozen
// web produces per-vantage record streams and per-vantage latency-tail
// tables, while the artifact cache is shared across vantages.
func TestWithVantagesPerVantageTables(t *testing.T) {
	p := New(
		WithSites(30), WithWorkers(6), WithInteract(true),
		WithVantages(RegionVantage("eu-west", 0, 0), RegionVantage("us-east", 0, 0)),
	)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SitesTotal != 60 {
		t.Fatalf("SitesTotal = %d, want 60 (30 sites × 2 vantages)", res.Summary.SitesTotal)
	}
	rows := res.VantageTable()
	if len(rows) != 2 || rows[0].Vantage != "eu-west" || rows[1].Vantage != "us-east" {
		t.Fatalf("vantage table rows = %+v, want eu-west and us-east", rows)
	}
	for _, r := range rows {
		if r.Visits != 30 {
			t.Fatalf("vantage %s visits = %d, want 30", r.Vantage, r.Visits)
		}
		if r.Complete > 0 && r.LoadP99Ms <= 0 {
			t.Fatalf("vantage %s has complete visits but no latency tail", r.Vantage)
		}
	}
	if rows[0].LoadP50Ms == rows[1].LoadP50Ms && rows[0].LoadP99Ms == rows[1].LoadP99Ms {
		t.Fatal("both vantages report identical latency tails; region models not applied")
	}
	// One frozen web, one cache: the second vantage's crawl must replay
	// the first's parsed artifacts, so hits exceed what a single crawl
	// of 30 sites could produce alone.
	cs := p.CacheStats()
	if cs.BodyHits == 0 || cs.ProgramHits == 0 {
		t.Fatalf("artifact cache unused across vantages: %+v", cs)
	}
}

// TestVantageStreamsAreDeterministic: the same seed and vantage set
// reproduce byte-identical records at different worker counts, vantage
// tags included.
func TestVantageStreamsAreDeterministic(t *testing.T) {
	mk := func(workers int) map[string]string {
		return crawlBySite(t, New(
			WithSites(20), WithWorkers(workers), WithInteract(true), WithSeed(3),
			WithVantages(RegionVantage("eu-west", 0.1, 3), RegionVantage("us-east", 0.1, 3)),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
			WithSecondPass(true),
		))
	}
	a, b := mk(7), mk(2)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for k, rec := range a {
		if b[k] != rec {
			t.Fatalf("record %q differs across worker counts", k)
		}
	}
	// Both vantages must actually appear in the keys.
	seen := map[string]bool{}
	for k := range a {
		for _, v := range []string{"eu-west", "us-east"} {
			if len(k) > len(v) && k[len(k)-len(v):] == v {
				seen[v] = true
			}
		}
	}
	if !seen["eu-west"] || !seen["us-east"] {
		t.Fatalf("missing vantage records: %v", seen)
	}
}

// TestVantageParallelPipelineEquivalence: a multi-vantage crawl is
// invisible at the public API — with the full scheduler stack (region
// faults, retries, breaker, second pass) enabled, its per-(site,
// vantage) records are byte-identical to crawling each vantage alone
// as a one-lane crawl, across worker counts.
func TestVantageParallelPipelineEquivalence(t *testing.T) {
	base := []Option{
		WithSites(25), WithInteract(true), WithSeed(3),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true, RoundVisits: 8}),
	}
	vants := []Vantage{RegionVantage("eu-west", 0.1, 3), RegionVantage("us-east", 0.1, 3)}
	alone := map[string]string{}
	for _, cfg := range oneLaneConfigs(append(base, WithWorkers(6)), vants, nil) {
		for k, rec := range crawlBySite(t, New(cfg...)) {
			alone[k] = rec
		}
	}
	for _, workers := range []int{2, 7} {
		multi := crawlBySite(t, New(append(base, WithWorkers(workers), WithVantages(vants...))...))
		if len(multi) != len(alone) {
			t.Fatalf("record counts differ at %d workers: %d vs %d", workers, len(multi), len(alone))
		}
		for k, rec := range alone {
			if multi[k] != rec {
				t.Fatalf("record %q differs between a one-lane crawl and the multi-vantage crawl at %d workers:\none-lane: %s\nmulti:    %s",
					k, workers, rec, multi[k])
			}
		}
	}
}

// TestVantageParallelRunResults: Run over a multi-vantage crawl
// produces the same analysis Results as analysing the concatenated
// logs of each vantage crawled alone (the analyzer's canonical
// finalize is order-independent, so interleaved vantage streams fold
// identically), and the per-vantage scheduler breakdown reaches
// SchedStats with the one-lane crawls' counts.
func TestVantageParallelRunResults(t *testing.T) {
	base := []Option{
		WithSites(25), WithInteract(true), WithSeed(3),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
		WithBreaker(Breaker{Enabled: true, RoundVisits: 8}),
	}
	vants := []Vantage{RegionVantage("eu-west", 0.1, 3), RegionVantage("us-east", 0.1, 3)}
	p := New(append(base, WithWorkers(3), WithVantages(vants...))...)
	multiRes, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	multiSched := p.SchedStats()

	var logs []VisitLog
	aloneSched := map[string]SchedSnapshot{}
	for i, cfg := range oneLaneConfigs(append(base, WithWorkers(6)), vants, nil) {
		q := New(cfg...)
		l, err := q.Crawl(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, l...)
		aloneSched[vants[i].Name] = q.SchedStats()
	}
	a, err := p.Analyze(logs).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := multiRes.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("multi-vantage Results differ from the analysis of one-lane crawls")
	}
	if len(multiSched.Vantages) != 2 {
		t.Fatalf("per-vantage sched breakdown has %d entries, want 2: %+v", len(multiSched.Vantages), multiSched)
	}
	var visits int64
	for name, s := range aloneSched {
		if got := multiSched.Vantages[name]; got.Visits != s.Visits || got.Opened != s.Opened || got.ShedFetches != s.ShedFetches {
			t.Fatalf("vantage %s sched differs from its one-lane crawl:\nmulti:    %+v\none-lane: %+v", name, got, s)
		}
		visits += s.Visits
	}
	if multiSched.Visits != visits || visits == 0 {
		t.Fatalf("multi-vantage sched visits %d, one-lane crawls %d", multiSched.Visits, visits)
	}
}

// TestMultiVantageProgressMonotonic: WithProgress reports one
// monotonic done out of sites × vantages at any worker count — no
// per-vantage restart.
func TestMultiVantageProgressMonotonic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		last := 0
		p := New(
			WithSites(15), WithWorkers(workers), WithSeed(3),
			WithVantages(RegionVantage("eu-west", 0, 0), RegionVantage("us-east", 0, 0)),
			WithProgress(func(done, total int) {
				// Serialized by the crawl's delivery lock.
				if total != 30 {
					t.Errorf("workers=%d: total = %d, want 30", workers, total)
				}
				if done != last+1 {
					t.Errorf("workers=%d: done jumped %d -> %d", workers, last, done)
				}
				last = done
			}),
		)
		if _, err := p.Crawl(context.Background()); err != nil {
			t.Fatal(err)
		}
		if last != 30 {
			t.Fatalf("workers=%d: final done = %d, want 30", workers, last)
		}
	}
}

// TestBreakerAutopilotOption: WithBreakerAutopilot implies the breaker
// (whatever the option order), keeps the crawl deterministic across
// worker counts, and records breaker activity in SchedStats.
func TestBreakerAutopilotOption(t *testing.T) {
	mk := func(workers int) (map[string]string, SchedSnapshot) {
		p := New(
			WithSites(40), WithWorkers(workers), WithInteract(true), WithSeed(3),
			WithFaults(FaultConfig{Seed: 99, PHostFlap: 0.5, FlapPeriodMs: 240000, FlapDownFrac: 0.5}),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 3}),
			WithBreakerAutopilot(),
		)
		return crawlBySite(t, p), p.SchedStats()
	}
	a, sa := mk(6)
	b, sb := mk(2)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for k, rec := range a {
		if b[k] != rec {
			t.Fatalf("record %q differs across worker counts under autopilot", k)
		}
	}
	if sa.Opened == 0 {
		t.Fatal("autopilot never opened a circuit on the flapping schedule")
	}
	if sa.Opened != sb.Opened || sa.Reopened != sb.Reopened || sa.ShedFetches != sb.ShedFetches {
		t.Fatalf("autopilot transitions differ across worker counts:\n6w: %+v\n2w: %+v", sa, sb)
	}
}

// Multi-vantage golden hashes pin the bytes multi-vantage crawls
// emitted while vantages could still be scheduled one after another,
// recorded from that sequential default: Results.StableJSON() of Run
// and the (site, vantage, persona)-sorted JSONL of Crawl. Every crawl
// now runs all vantages through one lane scheduler; each lane folds
// its rounds exactly as a standalone crawl of its cell would, so these
// must hold bit for bit.
const (
	multiVantageGoldenFaultedResults = "10b622ef558cc9699669beac8c07341c23a1f0c9af24812740e5790246ff700a"
	multiVantageGoldenFaultedCrawl   = "1ea6814951c546c6689a55c1ab2a0cc2abf149aa0151ecd72ca88af2877df82d"
	multiVantageGoldenCleanResults   = "bf76ea0ec78deeb4bd0e9715afcb38a89b258fbcb455d7c976974df93601bc86"
	multiVantageGoldenCleanCrawl     = "715c7ce09ad9c04d98217a8df776751d5f38ed0799284e8a45acd6dc966140e4"
)

// sortedCrawlDigest returns the sha256 over Crawl's output as
// (site, vantage, persona)-sorted JSONL.
func sortedCrawlDigest(t *testing.T, opts ...Option) string {
	t.Helper()
	logs, err := New(opts...).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sortedDigest(t, logs)
}

// resultsDigest returns the sha256 of Run's Results.StableJSON().
func resultsDigest(t *testing.T, opts ...Option) string {
	t.Helper()
	res, err := New(opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestMultiVantageGoldenHashes(t *testing.T) {
	cases := []struct {
		name, wantResults, wantCrawl string
		opts                         []Option
	}{
		{"faulted-personas", multiVantageGoldenFaultedResults, multiVantageGoldenFaultedCrawl, []Option{
			WithSites(30), WithWorkers(4), WithSeed(7), WithInteract(true),
			WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
			WithPersonas("accept", "reject"),
			WithFaults(UniformFaults(0.1, 7)),
			WithRetryPolicy(DefaultRetryPolicy()),
			WithSecondPass(true),
			WithBreakerAutopilot(),
		}},
		{"clean-three", multiVantageGoldenCleanResults, multiVantageGoldenCleanCrawl, []Option{
			WithSites(30), WithWorkers(4), WithSeed(7), WithInteract(true),
			WithVantages(RegionVantage("eu-west", 0, 7), RegionVantage("us-east", 0, 7), RegionVantage("ap-south", 0, 7)),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := resultsDigest(t, tc.opts...); got != tc.wantResults {
				t.Errorf("%s Results digest = %s, want golden %s", tc.name, got, tc.wantResults)
			}
			if got := sortedCrawlDigest(t, tc.opts...); got != tc.wantCrawl {
				t.Errorf("%s crawl digest = %s, want golden %s", tc.name, got, tc.wantCrawl)
			}
		})
	}
}
