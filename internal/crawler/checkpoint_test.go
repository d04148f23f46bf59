package crawler

// Tests for crash-safe checkpointing at the crawler layer: journaled
// runs emit the same bytes as unjournaled ones, a crawl killed at a
// seeded unit count resumes to byte-identical records and scheduler
// decisions (across worker counts, clean and faulted, with breaker +
// autopilot + personas + second pass), and resuming a complete journal
// replays everything without touching the network fabric.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/instrument"
	"cookieguard/internal/journal"
	"cookieguard/internal/netsim"
)

// ckptOptions is the full-stack scheduler shape the crash matrix runs
// under: retries, second pass, breaker with autopilot, two vantages,
// two personas.
func ckptOptions(in *netsim.Internet, workers int) Options {
	return Options{
		Internet:   in,
		Workers:    workers,
		Seed:       5,
		Interact:   true,
		Retry:      browser.RetryPolicy{MaxAttempts: 2},
		SecondPass: SecondPass{Enabled: true},
		Breaker:    Breaker{Enabled: true, RoundVisits: 8, Autopilot: true},
		Vantages: []netsim.Vantage{
			{Name: "eu-west"},
			{Name: "us-east"},
		},
		Personas: []string{"accept", "reject"},
		Stats:    &SchedStats{},
	}
}

// unitKey keys a record by its full identity.
func unitKey(l instrument.VisitLog) string {
	return l.Site + "\x00" + l.Vantage + "\x00" + l.Persona
}

// recordMap marshals every log keyed by (site, vantage, persona).
func recordMap(t *testing.T, logs []instrument.VisitLog) map[string]string {
	t.Helper()
	out := make(map[string]string, len(logs))
	for _, l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		k := unitKey(l)
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate record %q", k)
		}
		out[k] = string(b)
	}
	return out
}

// mustMatch asserts two record maps and sched snapshots are identical.
func mustMatch(t *testing.T, label string, want, got map[string]string, ws, gs SchedSnapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(want), len(got))
	}
	for k, rec := range want {
		if got[k] != rec {
			t.Fatalf("%s: records differ for %q:\nwant: %s\ngot:  %s", label, k, rec, got[k])
		}
	}
	wj, _ := json.Marshal(ws)
	gj, _ := json.Marshal(gs)
	if string(wj) != string(gj) {
		t.Fatalf("%s: sched snapshots differ:\nwant: %s\ngot:  %s", label, wj, gj)
	}
}

// TestCheckpointJournaledRunMatchesUnjournaled: enabling the journal on
// a fresh directory must not change a single emitted byte or scheduler
// decision, and every terminal unit must land in the journal.
func TestCheckpointJournaledRunMatchesUnjournaled(t *testing.T) {
	w, sites := buildSites(t, 30)
	in := w.BuildInternet()
	in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(0.35, 99)))

	base := ckptOptions(in, 4)
	res, err := Crawl(context.Background(), sites, base)
	if err != nil {
		t.Fatal(err)
	}
	want := recordMap(t, res.Logs)
	wantSnap := base.Stats.Snapshot()

	jnl, err := journal.Open(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jopts := ckptOptions(in, 4)
	jopts.Journal = jnl
	jres, err := Crawl(context.Background(), sites, jopts)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "journaled vs plain", want, recordMap(t, jres.Logs), wantSnap, jopts.Stats.Snapshot())

	st := jnl.Stats()
	wantUnits := int64(len(want)) + wantSnap.Requeued
	if st.Records != wantUnits {
		t.Fatalf("journal holds %d unit records, want %d (logs %d + requeued %d)",
			st.Records, wantUnits, len(want), wantSnap.Requeued)
	}
	if st.Snapshots == 0 {
		t.Fatal("no lane snapshots were journaled")
	}
	if st.BytesWritten == 0 || st.Fsyncs == 0 {
		t.Fatalf("journal IO not accounted: %+v", st)
	}
}

// TestCheckpointCrashResumeMatrix is the crash matrix from the issue:
// kill the crawl at seeded unit counts (early, mid, and — faulted —
// during the second pass) at worker counts {1, 8}, resume at a third
// worker count, and require records and scheduler decisions
// byte-identical to the uninterrupted run. Runs clean and at fault
// rate 0.35 with the full breaker + autopilot + personas shape.
func TestCheckpointCrashResumeMatrix(t *testing.T) {
	w, sites := buildSites(t, 30)
	for _, faulted := range []bool{false, true} {
		faulted := faulted
		name := "clean"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			in := w.BuildInternet()
			if faulted {
				in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(0.35, 99)))
			}
			base := ckptOptions(in, 4)
			res, err := Crawl(context.Background(), sites, base)
			if err != nil {
				t.Fatal(err)
			}
			want := recordMap(t, res.Logs)
			wantSnap := base.Stats.Snapshot()
			total := len(want) + int(wantSnap.Requeued)
			if faulted && wantSnap.Requeued < 2 {
				t.Fatalf("only %d requeues at this fault rate; late kill would miss the second pass", wantSnap.Requeued)
			}

			// The mid kill runs in stored-log mode (resume replays the
			// journaled prefix from disk); early and late run compact
			// (resume re-executes and verifies) — both resume strategies
			// covered at every worker count, clean and faulted.
			kills := []struct {
				name string
				at   int
				logs bool
			}{
				{"early", 3, false},
				{"mid", total / 2, true},
				{"late", total - 2, false}, // faulted: inside the second pass
			}
			for _, kp := range kills {
				for _, workers := range []int{1, 8} {
					kp, workers := kp, workers
					t.Run(fmt.Sprintf("%s/w%d", kp.name, workers), func(t *testing.T) {
						dir := t.TempDir()
						jnl, err := journal.Open(dir, "fp")
						if err != nil {
							t.Fatal(err)
						}
						copts := ckptOptions(in, workers)
						copts.Journal = jnl
						copts.JournalLogs = kp.logs
						copts.CrashAfterUnits = kp.at
						if _, err := Crawl(context.Background(), sites, copts); !errors.Is(err, ErrCrashInjected) {
							t.Fatalf("crashed run: got %v, want ErrCrashInjected", err)
						}
						jnl.Close()

						// Resume at a worker count used by neither the
						// baseline nor the crashed run.
						rj, err := journal.Open(dir, "fp")
						if err != nil {
							t.Fatal(err)
						}
						defer rj.Close()
						if rj.Units() == 0 {
							t.Fatal("crashed journal is empty; nothing was persisted")
						}
						ropts := ckptOptions(in, 5)
						ropts.Journal = rj
						ropts.JournalLogs = kp.logs
						rres, err := Crawl(context.Background(), sites, ropts)
						if err != nil {
							t.Fatalf("resume: %v", err)
						}
						mustMatch(t, "resumed vs uninterrupted", want,
							recordMap(t, rres.Logs), wantSnap, ropts.Stats.Snapshot())
						if rj.Stats().Replayed == 0 {
							t.Fatal("resume replayed nothing from the journal")
						}
					})
				}
			}
		})
	}
}

// TestCheckpointFullReplayMakesNoFabricRequests: in stored-log mode
// (JournalLogs), resuming a journal that already holds every unit
// replays the whole crawl from disk — identical records, zero new unit
// records, and not a single exchange served by the network fabric.
func TestCheckpointFullReplayMakesNoFabricRequests(t *testing.T) {
	w, sites := buildSites(t, 30)
	in := w.BuildInternet()
	in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(0.35, 99)))
	dir := t.TempDir()

	jnl, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	opts := ckptOptions(in, 4)
	opts.Journal = jnl
	opts.JournalLogs = true
	res, err := Crawl(context.Background(), sites, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := recordMap(t, res.Logs)
	wantSnap := opts.Stats.Snapshot()
	jnl.Close()

	before := in.Requests()
	rj, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	ropts := ckptOptions(in, 8)
	ropts.Journal = rj
	ropts.JournalLogs = true
	rres, err := Crawl(context.Background(), sites, ropts)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "full replay", want, recordMap(t, rres.Logs), wantSnap, ropts.Stats.Snapshot())
	if got := in.Requests(); got != before {
		t.Fatalf("full replay hit the fabric: %d new requests", got-before)
	}
	st := rj.Stats()
	if st.Records != 0 {
		t.Fatalf("full replay appended %d new unit records, want 0", st.Records)
	}
	if st.Replayed != int64(st.LoadedUnits) || st.LoadedUnits == 0 {
		t.Fatalf("replayed %d of %d loaded units", st.Replayed, st.LoadedUnits)
	}
}

// TestCrashAfterUnitsRequiresJournal: crash injection without a journal
// is a configuration error, not a silent no-op.
func TestCrashAfterUnitsRequiresJournal(t *testing.T) {
	w, sites := buildSites(t, 5)
	_, err := Crawl(context.Background(), sites, Options{
		Internet:        w.BuildInternet(),
		Workers:         2,
		CrashAfterUnits: 3,
	})
	if err == nil {
		t.Fatal("CrashAfterUnits without Journal must error")
	}
}

// TestCheckpointContinuousLaneResume: the journal also covers the
// continuous (no-breaker) scheduling path — crash and resume a plain
// crawl with no rounds, no second pass, no personas.
func TestCheckpointContinuousLaneResume(t *testing.T) {
	w, sites := buildSites(t, 25)
	in := w.BuildInternet()
	base := Options{Internet: in, Workers: 4, Seed: 5, Stats: &SchedStats{}}
	res, err := Crawl(context.Background(), sites, base)
	if err != nil {
		t.Fatal(err)
	}
	want := recordMap(t, res.Logs)
	wantSnap := base.Stats.Snapshot()

	dir := t.TempDir()
	jnl, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	copts := Options{Internet: in, Workers: 8, Seed: 5, Journal: jnl, CrashAfterUnits: 10, Stats: &SchedStats{}}
	if _, err := Crawl(context.Background(), sites, copts); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crashed run: got %v, want ErrCrashInjected", err)
	}
	jnl.Close()

	rj, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	ropts := Options{Internet: in, Workers: 1, Seed: 5, Journal: rj, Stats: &SchedStats{}}
	rres, err := Crawl(context.Background(), sites, ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	mustMatch(t, "continuous resume", want, recordMap(t, rres.Logs), wantSnap, ropts.Stats.Snapshot())
}

// TestVerifyUnitNamesDivergedField: a re-executed unit that differs
// from its journaled record fails with ErrDiverged naming the first
// differing field and both values.
func TestVerifyUnitNamesDivergedField(t *testing.T) {
	journaled := journal.Record{
		Vantage: "eu-west", Persona: "accept", Site: 3, Pass: 1,
		OK: false, Failure: "timeout", VirtualMs: 1200.5, ShedFetches: 2,
		Hosts: []journal.HostCount{{Host: "a.com", Transient: 1}, {Host: "b.com", OK: 3}},
	}
	cases := []struct {
		name   string
		mutate func(*journal.Record)
		want   string
	}{
		{"ok", func(r *journal.Record) { r.OK = true }, "ok: journaled false, re-executed true"},
		{"requeue", func(r *journal.Record) { r.Requeue = true }, "requeue: journaled false, re-executed true"},
		{"failure", func(r *journal.Record) { r.Failure = "" }, `failure: journaled "timeout", re-executed ""`},
		{"virtual_ms", func(r *journal.Record) { r.VirtualMs = 1300 }, "virtual_ms: journaled 1200.5, re-executed 1300"},
		{"shed_fetches", func(r *journal.Record) { r.ShedFetches = 0 }, "shed_fetches: journaled 2, re-executed 0"},
		{"hosts length", func(r *journal.Record) { r.Hosts = r.Hosts[:1] }, "hosts length: journaled 2, re-executed 1"},
		{"hosts element", func(r *journal.Record) {
			r.Hosts = []journal.HostCount{r.Hosts[0], {Host: "b.com", OK: 2}}
		}, "hosts[1]: journaled {Host:b.com Transient:0 OK:3}, re-executed {Host:b.com Transient:0 OK:2}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := journaled
			fresh.Hosts = append([]journal.HostCount(nil), journaled.Hosts...)
			tc.mutate(&fresh)
			err := verifyUnit(&journaled, fresh)
			if !errors.Is(err, journal.ErrDiverged) {
				t.Fatalf("err = %v, want ErrDiverged", err)
			}
			want := "unit eu-west/accept site 3 pass 1 re-executed differently: " + tc.want
			if !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("err = %q\nwant suffix %q", err, want)
			}
		})
	}
	if err := verifyUnit(&journaled, journaled); err != nil {
		t.Fatalf("identical record rejected: %v", err)
	}
}
