package main

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		want, got float64
		desc      string
	}{
		{1000, 0.99, 0.99, "enough samples: p99 itself"},
		{2000, 0.99, 0.99, "more than enough"},
		{500, 0.99, 0.98, "p99 has 5 beyond: fall back to p98"},
		{100, 0.9, 0.9, "p90 of 100 has exactly 10 beyond"},
		{50, 0.9, 0.8, "p90 of 50 falls back to p80"},
		{12, 0.99, 0.5, "never below the median"},
		{0, 0.99, 0.5, "no samples"},
	} {
		if q := tailQuantile(tc.n, tc.want); math.Abs(q-tc.got) > 1e-9 {
			t.Errorf("%s: tailQuantile(%d, %v) = %v, want %v", tc.desc, tc.n, tc.want, q, tc.got)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	if got := tail(xs, 0.99); math.Abs(got-990.01) > 1e-6 {
		t.Errorf("tail p99 of 1..1000 = %v, want 990.01", got)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median of 1..1000 = %v, want 500.5", got)
	}
}

// The reader is open-loop: a stalled request delays the ones due after
// it, and their latency counts that wait from their due time.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Result-Index", "1")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := oneConn()
	defer c.CloseIdleConnections()
	epoch := time.Now()
	rd := &reader{client: c, base: srv.URL, rate: 200, sites: []string{"a.com"}, rng: rand.New(rand.NewPCG(1, 1)), epoch: epoch}
	reads, mono := rd.run(context.Background(), nil, 12, true)
	if len(reads) != 12 || !mono {
		t.Fatalf("got %d reads, monotonic %v", len(reads), mono)
	}
	interval := 5 * time.Millisecond
	for i, s := range reads {
		if i > 0 && s.due-reads[i-1].due != interval {
			t.Fatalf("read %d due %v after the previous, want %v", i, s.due-reads[i-1].due, interval)
		}
		if s.latency() != s.lateness()+s.service() {
			t.Fatalf("read %d: latency %v != lateness %v + service %v", i, s.latency(), s.lateness(), s.service())
		}
		if !s.ok {
			t.Fatalf("read %d not ok", i)
		}
	}
	// The request after the stalled one was due 5ms after it but could
	// only be sent once the stall ended: it is late by most of the stall,
	// and its latency carries that lateness.
	after := reads[3]
	if after.lateness() < stall-2*interval {
		t.Errorf("request after the stall late by %v, want about %v", after.lateness(), stall-interval)
	}
	if after.latency() < after.lateness() {
		t.Errorf("latency %v below lateness %v", after.latency(), after.lateness())
	}
	if reads[1].lateness() > stall/2 {
		t.Errorf("request before the stall late by %v", reads[1].lateness())
	}
}

func TestMixFollowsWeights(t *testing.T) {
	const per = 2000
	total := 0
	for _, e := range endpoints {
		total += e.weight
	}
	counts := make([]int, len(endpoints))
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < per*total; i++ {
		counts[pick(rng)]++
	}
	for i, e := range endpoints {
		if want := per * e.weight; math.Abs(float64(counts[i]-want)) > 0.1*float64(want) {
			t.Errorf("%s drawn %d times, want about %d", e.path, counts[i], want)
		}
	}
}

func TestReaderFlagsIndexGoingBack(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			return // unversioned
		}
		idx := "4"
		if n.Add(1) == 1 {
			idx = "5"
		}
		w.Header().Set("X-Result-Index", idx)
	}))
	defer srv.Close()
	c := oneConn()
	defer c.CloseIdleConnections()
	rd := &reader{client: c, base: srv.URL, rate: 1000, sites: []string{"a.com"}, rng: rand.New(rand.NewPCG(3, 3)), epoch: time.Now()}
	if _, mono := rd.run(context.Background(), nil, 20, true); mono {
		t.Error("index went from 5 to 4 but the reader reported it monotonic")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "crawl", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "observe", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "observe", Start: 20, End: 50}, // overlaps 2 (concurrent shard)
		{ID: 4, Parent: 1, Name: "wait", Start: 90, End: 120},   // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "inner", Start: 12, End: 18},   // grandchild: only its parent's
		{ID: 6, Parent: 1, Name: "open", Start: 60, End: -1},    // never closed: ignored
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %d, want %d", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("open span got a self time")
	}
	by := selfMs(spans)
	if got := by["observe"]; len(got) != 2 || got[0] != 14e-6 || got[1] != 30e-6 {
		t.Errorf("observe self ms = %v", got)
	}
}

func TestFreshnessJoinsProgressToSnapshots(t *testing.T) {
	ms := time.Millisecond
	// progressAt[n]: the crawl reached n units at n*10ms.
	at := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	rs := []receipt{
		{at: 5 * ms, index: 1, done: 0},               // empty snapshot: no crawl data
		{at: 27 * ms, index: 2, done: 2},              // 7ms after unit 2
		{at: 41 * ms, index: 3, done: 4, final: true}, // 1ms after unit 4
	}
	got, ok := freshness(at, rs)
	if !ok || len(got) != 2 || got[0] != 7 || got[1] != 1 {
		t.Fatalf("freshness = %v, %v; want [7 1], true", got, ok)
	}
	if _, ok := freshness(at, []receipt{{at: 50 * ms, done: 9}}); ok {
		t.Error("a snapshot beyond the reported progress joined")
	}
	if _, ok := freshness([]time.Duration{0, 0, 20 * ms}, []receipt{{at: 50 * ms, done: 1}}); ok {
		t.Error("a count the crawl never reported joined")
	}
}

func TestStalenessCoversEveryUnit(t *testing.T) {
	ms := time.Millisecond
	at := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	got, ok := staleness(at, receipt{at: 35 * ms, done: 3, final: true})
	if !ok || len(got) != 3 || got[0] != 25 || got[1] != 15 || got[2] != 5 {
		t.Fatalf("staleness = %v, %v; want [25 15 5], true", got, ok)
	}
	if _, ok := staleness(at, receipt{at: 35 * ms, done: 4}); ok {
		t.Error("a snapshot covering unreported units joined")
	}
	if _, ok := staleness([]time.Duration{0, 10 * ms, 0, 30 * ms}, receipt{at: 35 * ms, done: 3}); ok {
		t.Error("a gap in the progress counts joined")
	}
}

// With no rate the reader is closed-loop: each request is due when the
// previous one has returned, so it is never late.
func TestClosedLoopHasNoLateness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
	}))
	defer srv.Close()
	c := oneConn()
	defer c.CloseIdleConnections()
	rd := &reader{client: c, base: srv.URL, sites: []string{"a.com"}, rng: rand.New(rand.NewPCG(1, 1)), epoch: time.Now()}
	reads, _ := rd.run(context.Background(), nil, 10, true)
	if len(reads) != 10 {
		t.Fatalf("got %d reads", len(reads))
	}
	for i, s := range reads {
		if s.lateness() > time.Millisecond {
			t.Errorf("read %d late by %v", i, s.lateness())
		}
		if i > 0 && s.due < reads[i-1].done {
			t.Errorf("read %d due before the previous answer", i)
		}
	}
}

// spin burns CPU without allocating, so the profile's samples land in it.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var spinSink uint64

func TestProfileDecodeAttributesLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spinSink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range flat {
		total += n
	}
	// The decoder must name the function that ran, and give it most of
	// the samples: every <layer>.cpu_share rests on that attribution.
	if n := flat["cookieguard/perfbench.spin"]; total == 0 || 2*n < total {
		t.Fatalf("spin has %d of %d samples; decoded %v", n, total, flat)
	}
	for fn, want := range map[string]string{
		"cookieguard/internal/jsdsl.(*Interp).eval":       "jsdsl",
		"cookieguard/internal/dom.Parse":                  "dom",
		"runtime.mallocgc":                                "runtime",
		"cookieguard/internal/analysis.merge[...].func1":  "analysis",
		"net/http.(*conn).serve":                          "",
		"cookieguard.(*Pipeline).Run":                     "",
		"cookieguard/internal/jsdsl.F[go.shape.*uint8].f": "jsdsl",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileDecodeRejectsGarbage(t *testing.T) {
	if _, err := flatByFunction([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}

// BENCHMARK.json and layers.json are generated from the tables in
// metrics.go (go run . --manifest / --layers); the checked-in copies
// must match.
func TestManifestFilesInSync(t *testing.T) {
	for path, v := range map[string]any{"../BENCHMARK.json": buildManifest(), "layers.json": buildLayerMap()} {
		want, err := encodeIndented(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: regenerate it with go run . --manifest / --layers", path)
		}
	}
}

func TestMetricTables(t *testing.T) {
	names := map[string]bool{}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s missing")
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.name] = true
	}
	for _, m := range append(append([]metric(nil), endToEnd...), layerMetrics()...) {
		if names[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		names[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, l := range perLayer {
		for _, mv := range l.Moves {
			if !e2e[mv.Metric] || !wl[mv.Workload] {
				t.Errorf("%s moves unknown %s on %s", l.Name, mv.Metric, mv.Workload)
			}
		}
		for _, w := range l.FlatOn {
			if !wl[w] {
				t.Errorf("%s flat on unknown workload %s", l.Name, w)
			}
		}
	}
}
