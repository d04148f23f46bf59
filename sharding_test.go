package cookieguard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// shardStackOptions is the full-scheduler-stack configuration the
// sharding acceptance criteria run under: region faults, retries,
// breaker with autopilot, second pass, two vantages, two consent
// personas.
func shardStackOptions(sites, workers int) []Option {
	return []Option{
		WithSites(sites), WithWorkers(workers), WithInteract(true), WithSeed(7),
		WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true, RoundVisits: 8}),
		WithBreakerAutopilot(),
		WithPersonas("accept", "reject"),
	}
}

// TestShardedCrawlEquivalence: the in-process shard driver's Crawl is
// byte-identical — same records in the same batch order — to the
// unsharded crawl, with the full scheduler stack enabled, across shard
// and worker counts.
func TestShardedCrawlEquivalence(t *testing.T) {
	base, err := New(shardStackOptions(18, 5)...).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shards, workers int }{{2, 5}, {4, 3}} {
		p := New(append(shardStackOptions(18, tc.workers), WithShards(tc.shards))...)
		got, err := p.Crawl(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("%d shards: %d logs, want %d", tc.shards, len(got), len(base))
		}
		for i := range base {
			a, _ := json.Marshal(base[i])
			b, _ := json.Marshal(got[i])
			if string(a) != string(b) {
				t.Fatalf("%d shards at %d workers: log %d differs:\nunsharded: %s\nsharded:   %s",
					tc.shards, tc.workers, i, a, b)
			}
		}
	}
}

// TestShardedRunEquivalence: Run over the sharded stream produces
// byte-identical Results.StableJSON() and identical merged scheduler
// counters (owned-work sums, replicated circuit maxima).
func TestShardedRunEquivalence(t *testing.T) {
	run := func(extra ...Option) ([]byte, SchedSnapshot) {
		p := New(append(shardStackOptions(18, 4), extra...)...)
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b, p.SchedStats()
	}
	base, baseSched := run()
	shrd, shrdSched := run(WithShards(3))
	if string(base) != string(shrd) {
		t.Fatal("sharded Results.StableJSON() diverges from unsharded")
	}
	a, _ := json.Marshal(baseSched)
	b, _ := json.Marshal(shrdSched)
	if string(a) != string(b) {
		t.Fatalf("merged sharded scheduler counters diverge from unsharded:\nunsharded: %s\nsharded:   %s", a, b)
	}
}

// TestShardedPureParition: with no cross-unit feedback configured (no
// breaker, no second pass) sharding is a pure partition — no exchange
// — and still merges byte-identical.
func TestShardedPurePartition(t *testing.T) {
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithSites(20), WithWorkers(4), WithInteract(true), WithSeed(5),
			WithFaults(UniformFaults(0.1, 5)),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
		}, extra...)
	}
	base := crawlBySite(t, New(opts()...))
	got := crawlBySite(t, New(opts(WithShards(4))...))
	if len(got) != len(base) {
		t.Fatalf("record counts differ: %d vs %d", len(got), len(base))
	}
	for k, rec := range base {
		if got[k] != rec {
			t.Fatalf("record %q differs between unsharded and 4-shard pure partition", k)
		}
	}
}

// streamByUnit collects a pipeline's stream keyed by the full unit
// coordinate (site, vantage, persona), failing on duplicates.
func streamByUnit(t *testing.T, p *Pipeline) map[string]string {
	t.Helper()
	got := map[string]string{}
	logs, errs := p.Stream(context.Background())
	for l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		k := l.Site + "\x00" + l.Vantage + "\x00" + l.Persona
		if _, dup := got[k]; dup {
			t.Fatalf("unit %q delivered twice", k)
		}
		got[k] = string(b)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestShardWorkerUnion: two WithShardWorker pipelines (the subprocess
// protocol's per-process view) on a feedback-free crawl partition the
// unit space exactly — their streams are disjoint and their union is
// byte-identical to the unsharded record set.
func TestShardWorkerUnion(t *testing.T) {
	opts := []Option{
		WithSites(16), WithWorkers(3), WithInteract(true), WithSeed(9),
		WithFaults(UniformFaults(0.1, 9)),
		WithPersonas("accept", "reject"),
	}
	base := streamByUnit(t, New(opts...))
	got := map[string]string{}
	for i := 0; i < 2; i++ {
		part := streamByUnit(t, New(append(append([]Option{}, opts...), WithShardWorker(i, 2))...))
		for k, rec := range part {
			if _, dup := got[k]; dup {
				t.Fatalf("unit %q crawled by both shard workers", k)
			}
			got[k] = rec
		}
	}
	if len(got) != len(base) {
		t.Fatalf("worker union has %d units, want %d", len(got), len(base))
	}
	for k, rec := range base {
		if got[k] != rec {
			t.Fatalf("unit %q differs between unsharded and worker union", k)
		}
	}
}

// TestShardWorkerJournalExchange is the subprocess protocol's heart
// run in-process: N WithShardWorker pipelines over checkpoint dirs
// <base>/shard-<i>, with the breaker + autopilot + second pass on, so
// every shard must fold every other shard's outcomes by tailing the
// sibling journals (live-flushed appends ARE the publishes). The union
// of the worker streams must be byte-identical to the unsharded crawl.
func TestShardWorkerJournalExchange(t *testing.T) {
	const n = 3
	base := streamByUnit(t, New(shardStackOptions(15, 4)...))
	dir := t.TempDir()
	type part struct {
		logs map[string]string
		err  error
	}
	parts := make([]part, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			p := New(append(shardStackOptions(15, 4),
				WithShardWorker(i, n),
				WithCheckpoint(filepath.Join(dir, fmt.Sprintf("shard-%d", i))))...)
			defer p.Shutdown(context.Background())
			got := map[string]string{}
			logs, errs := p.Stream(context.Background())
			for l := range logs {
				b, err := json.Marshal(l)
				if err != nil {
					parts[i].err = err
					return
				}
				got[l.Site+"\x00"+l.Vantage+"\x00"+l.Persona] = string(b)
			}
			parts[i].logs = got
			parts[i].err = <-errs
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	union := map[string]string{}
	for i, pt := range parts {
		if pt.err != nil {
			t.Fatalf("shard worker %d: %v", i, pt.err)
		}
		for k, rec := range pt.logs {
			if _, dup := union[k]; dup {
				t.Fatalf("unit %q crawled by two shard workers", k)
			}
			union[k] = rec
		}
	}
	if len(union) != len(base) {
		t.Fatalf("worker union has %d units, want %d", len(union), len(base))
	}
	for k, rec := range base {
		if union[k] != rec {
			t.Fatalf("unit %q differs between unsharded and journal-exchange worker union", k)
		}
	}
}

// TestShardWorkerFeedbackNeedsCheckpoint: a worker shard of a breaker
// crawl has no outcome exchange without sibling journals, and says so.
func TestShardWorkerFeedbackNeedsCheckpoint(t *testing.T) {
	p := New(WithSites(4), WithBreaker(Breaker{Enabled: true}), WithShardWorker(0, 2))
	_, errs := p.Stream(context.Background())
	if err := <-errs; err == nil || !strings.Contains(err.Error(), "WithCheckpoint") {
		t.Fatalf("want a WithCheckpoint-pointing error, got %v", err)
	}
}

// TestShardedKillAndAdopt is the in-process kill-and-adopt scenario:
// shard 0 of a checkpointed sharded crawl is crash-injected mid-run,
// the coordinator adopts it (relaunch + journal resume with stored-log
// replay), the crawl completes with zero lost or duplicated unit
// records, and the Results are byte-identical to an uninterrupted
// unsharded run.
func TestShardedKillAndAdopt(t *testing.T) {
	clean, err := New(shardStackOptions(18, 4)...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, err := clean.StableJSON()
	if err != nil {
		t.Fatal(err)
	}

	p := New(append(shardStackOptions(18, 4),
		WithShards(3),
		WithCheckpoint(t.TempDir()),
		WithCrashAfterUnits(5))...)
	total := 18 * 2 * 2
	seen := map[string]int{}
	logs, errs := p.Stream(context.Background())
	for l := range logs {
		seen[l.Site+"\x00"+l.Vantage+"\x00"+l.Persona]++
	}
	if err := <-errs; err != nil {
		t.Fatalf("adoption should absorb the injected crash, got %v", err)
	}
	if len(seen) != total {
		t.Fatalf("adopted crawl delivered %d distinct units, want %d (lost units)", len(seen), total)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("unit %q delivered %d times (duplicates)", k, n)
		}
	}
	stats := p.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("ShardStats has %d entries, want 3", len(stats))
	}
	if stats[0].Attempts < 2 {
		t.Fatalf("shard 0 should have been adopted (attempts >= 2), got %+v", stats[0])
	}
	for _, s := range stats {
		if s.State != "done" {
			t.Fatalf("shard %d finished in state %q, want done", s.Shard, s.State)
		}
	}

	// Byte-identity after adoption: re-run the sharded pipeline's
	// analysis path against the clean run.
	p2 := New(append(shardStackOptions(18, 4), WithShards(3))...)
	res, err := p2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(cleanJSON) {
		t.Fatal("sharded Results diverge from uninterrupted unsharded run")
	}
}

// TestShardedServedEndpoints: a served sharded run's /v1 endpoints are
// byte-identical to the unsharded served run's, and /v1/stats exposes
// the per-shard breakdown with the crawl-wide merged scheduler view.
func TestShardedServedEndpoints(t *testing.T) {
	serve := func(extra ...Option) (*Pipeline, *httptest.Server) {
		p := New(append(append(shardStackOptions(15, 4), WithSnapshotEvery(16)), extra...)...)
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p, httptest.NewServer(p.NewServer())
	}
	fetch := func(ts *httptest.Server, path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	_, baseTS := serve()
	defer baseTS.Close()
	shp, shTS := serve(WithShards(3))
	defer shTS.Close()
	for _, path := range []string{
		"/v1/results", "/v1/summary", "/v1/sites",
		"/v1/tables/retention", "/v1/tables/failures",
		"/v1/tables/vantages", "/v1/tables/personas", "/v1/tables/actions",
	} {
		if fetch(baseTS, path) != fetch(shTS, path) {
			t.Fatalf("GET %s differs between unsharded and sharded served runs", path)
		}
	}
	var live struct {
		Sched  SchedSnapshot    `json:"sched"`
		Shards []ShardLiveStats `json:"shards"`
	}
	if err := json.Unmarshal([]byte(fetch(shTS, "/v1/stats")), &live); err != nil {
		t.Fatal(err)
	}
	if len(live.Shards) != 3 {
		t.Fatalf("/v1/stats shards has %d entries, want 3", len(live.Shards))
	}
	var visits int64
	for _, s := range live.Shards {
		if s.State != "done" {
			t.Fatalf("shard %d state %q, want done", s.Shard, s.State)
		}
		visits += s.Sched.Visits
	}
	if visits != live.Sched.Visits {
		t.Fatalf("merged visits %d != per-shard sum %d", live.Sched.Visits, visits)
	}
	want := shp.SchedStats()
	if live.Sched.Visits != want.Visits || live.Sched.Opened != want.Opened {
		t.Fatalf("/v1/stats sched %+v disagrees with SchedStats %+v", live.Sched, want)
	}
}

// TestShardedCrashWithoutCheckpointFails: crash injection needs a
// journal (sharded exactly as unsharded), and without one the
// coordinator has a zero retry budget — the failure surfaces instead
// of an adoption loop.
func TestShardedCrashWithoutCheckpointFails(t *testing.T) {
	p := New(WithSites(8), WithSeed(3), WithShards(2), WithCrashAfterUnits(3))
	_, err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "Journal") {
		t.Fatalf("want the journal-requirement error to surface, got %v", err)
	}
}
