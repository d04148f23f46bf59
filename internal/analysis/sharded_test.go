package analysis

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cookieguard/internal/instrument"
)

// shardFixture builds n complete visits with unique sites (the pipeline
// visits each (site, vantage) once per crawl) cycling through the
// behaviours the analyzer detects — overwrite, delete, exfiltration,
// HTTP-set clobber — plus periodic incomplete visits and a second
// vantage, so every merge path (events, pairs, site actions, failures,
// vantage rollups) is exercised.
func shardFixture(n int) []instrument.VisitLog {
	logs := make([]instrument.VisitLog, 0, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("site%03d.example", i)
		if i%7 == 6 {
			logs = append(logs, instrument.VisitLog{Site: site, OK: false})
			continue
		}
		v := baseLog()
		v.Site = site
		v.URL = "https://www." + site + "/"
		if i%3 == 1 {
			v.Vantage = "eu"
		}
		v.Timing.LoadEvent = float64(40 + i%17*13)
		switch i % 4 {
		case 0: // cross-domain overwrite
			v.Cookies = []instrument.CookieEvent{
				writeEv(instrument.APIDocument, "_ga", "GA1.1.444332364.1746838827", setterJS, 3600),
				writeEv(instrument.APIDocument, "_ga", "GA1.1.999999999.1746838827", readerJS, 7200),
			}
		case 1: // exfiltration via beacon
			v.Cookies = []instrument.CookieEvent{
				writeEv(instrument.APIDocument, "_uid", "uidval4433236411", setterJS, 3600),
			}
			v.Requests = append(v.Requests, instrument.RequestEvent{
				URL:             "https://px.dest.example/t?u=dWlkdmFsNDQzMzIzNjQxMQ",
				Kind:            "beacon",
				InitiatorScript: readerJS,
				InitiatorDomain: "other.example",
				MainFrame:       true,
			})
		case 2: // cross-domain delete + CookieStore write
			v.Cookies = []instrument.CookieEvent{
				writeEv(instrument.APIDocument, "_sid", "sidvalue12345678", setterJS, 600),
				deleteEv(instrument.APIDocument, "_sid", readerJS),
				writeEv(instrument.APICookieStore, "cs_id", "csvalue1234567", setterJS, 600),
			}
		case 3: // HTTP-set cookie clobbered by script
			v.Cookies = []instrument.CookieEvent{
				{Op: instrument.OpHTTPSet, API: instrument.APIHTTP, Name: "srv",
					Value: "serverval12345678", Domain: site, MainFrame: true},
				writeEv(instrument.APIDocument, "srv", "clobbered12345678", readerJS, 60),
			}
		}
		logs = append(logs, v)
	}
	return logs
}

func stableBytes(t *testing.T, r *Results) []byte {
	t.Helper()
	b, err := r.StableJSON()
	if err != nil {
		t.Fatalf("StableJSON: %v", err)
	}
	return b
}

// TestMergeMatchesSingle is the shard-merge equivalence contract: for
// N ∈ {1, 2, 8} shards, distributing the logs across shards (round-robin
// and random assignment, in shuffled feed orders) and merging must
// produce Results byte-identical to the single analyzer over the same
// logs.
func TestMergeMatchesSingle(t *testing.T) {
	logs := shardFixture(60)
	want := stableBytes(t, New().Run(logs))

	for _, n := range []int{1, 2, 8} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(n*100 + trial)))
			order := rng.Perm(len(logs))
			shards := make([]*Analyzer, n)
			for i := range shards {
				shards[i] = New()
			}
			for k, idx := range order {
				var si int
				if trial%2 == 0 {
					si = k % n // round-robin
				} else {
					si = rng.Intn(n) // uneven random assignment
				}
				shards[si].Observe(logs[idx])
			}
			got := stableBytes(t, Merge(shards...))
			if string(got) != string(want) {
				t.Fatalf("n=%d trial=%d: merged Results diverge from single analyzer\nwant: %s\ngot:  %s", n, trial, want, got)
			}
		}
	}
}

// TestShardedConcurrentObserve feeds a Sharded analyzer from concurrent
// workers (more workers than shards, so shard locks are exercised) with
// mid-run Snapshots racing the writers, and requires the final Finalize
// to match the single analyzer byte for byte. Run with -race this also
// proves Observe/Snapshot don't share unsynchronized state.
func TestShardedConcurrentObserve(t *testing.T) {
	logs := shardFixture(80)
	want := stableBytes(t, New().Run(logs))

	for _, n := range []int{1, 2, 8} {
		sh := NewSharded(n, nil)
		var wg sync.WaitGroup
		workers := 2 * n
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(logs); i += workers {
					sh.Observe(w, logs[i])
				}
			}(w)
		}
		// Snapshot concurrently with the writers: results must be valid
		// (finalizable) even if partial.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				snap := sh.Snapshot()
				if _, err := snap.StableJSON(); err != nil {
					t.Errorf("mid-run snapshot not encodable: %v", err)
				}
			}
		}()
		wg.Wait()
		got := stableBytes(t, sh.Finalize())
		if string(got) != string(want) {
			t.Fatalf("n=%d: concurrent sharded Finalize diverges from single analyzer", n)
		}
	}
}

// TestSnapshotNonDestructive: a Snapshot must not consume shard state —
// observation continues and the final Finalize still covers every log.
func TestSnapshotNonDestructive(t *testing.T) {
	logs := shardFixture(20)
	want := stableBytes(t, New().Run(logs))

	sh := NewSharded(4, nil)
	for i, v := range logs {
		sh.Observe(i, v)
		if i == len(logs)/2 {
			mid := sh.Snapshot()
			if mid.Summary.SitesTotal == 0 {
				t.Fatal("mid-run snapshot saw no sites")
			}
		}
	}
	if got := stableBytes(t, sh.Finalize()); string(got) != string(want) {
		t.Fatal("Finalize after mid-run Snapshot diverges from single analyzer")
	}
}

// TestMergeEmptyShards: merging nil and never-observed shards yields the
// same empty Results a fresh analyzer finalizes to.
func TestMergeEmptyShards(t *testing.T) {
	want := stableBytes(t, New().Finalize())
	got := stableBytes(t, Merge(nil, New(), nil))
	if string(got) != string(want) {
		t.Fatalf("empty merge diverges: want %s got %s", want, got)
	}
}

// TestSnapshotMatchesFinalize: a quiescent Snapshot equals Finalize.
func TestSnapshotMatchesFinalize(t *testing.T) {
	logs := shardFixture(15)
	sh := NewSharded(3, nil)
	for i, v := range logs {
		sh.Observe(i, v)
	}
	snap := stableBytes(t, sh.Snapshot())
	fin := stableBytes(t, sh.Finalize())
	if string(snap) != string(fin) {
		t.Fatal("quiescent Snapshot diverges from Finalize")
	}
}

// TestVantageInterleavingOrderIndependent models the two orders a
// multi-vantage crawl feeds analysis in: Crawl's batch output holds
// consecutive per-vantage blocks, Stream interleaves vantages in
// completion order. The canonical finalize must
// make both feeds — single analyzer or sharded — byte-identical.
func TestVantageInterleavingOrderIndependent(t *testing.T) {
	base := shardFixture(40)
	var blocked []instrument.VisitLog
	for _, vant := range []string{"eu-west", "us-east"} {
		for _, v := range base {
			v.Vantage = vant
			// Regions observe different tails; perturb so rollups differ.
			if vant == "us-east" {
				v.Timing.LoadEvent *= 0.7
			}
			blocked = append(blocked, v)
		}
	}
	// Interleave the two vantage blocks pairwise (worst-case mixing).
	half := len(blocked) / 2
	interleaved := make([]instrument.VisitLog, 0, len(blocked))
	for i := 0; i < half; i++ {
		interleaved = append(interleaved, blocked[i], blocked[half+i])
	}
	want := stableBytes(t, New().Run(blocked))
	if got := stableBytes(t, New().Run(interleaved)); string(got) != string(want) {
		t.Fatal("interleaved vantage feed diverges from blocked feed (single analyzer)")
	}
	sh := NewSharded(4, nil)
	for i, v := range interleaved {
		sh.Observe(i%4, v)
	}
	if got := stableBytes(t, sh.Finalize()); string(got) != string(want) {
		t.Fatal("interleaved vantage feed diverges from blocked feed (sharded)")
	}
}
