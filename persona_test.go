package cookieguard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// pr7GoldenHashes pin the exact bytes PR 7 emitted for two persona-free
// configurations (captured from the pre-refactor tree). The crawl-plan
// unit refactor must reproduce them bit for bit: a config that never
// mentions personas crawls exactly one implicit-persona lane per
// vantage and its records carry no persona field at all.
const (
	pr7GoldenClean   = "dd851277250af051203e790f3d2c4770ae5f3029d5e0aff30361d94e5cefc91b"
	pr7GoldenFaulted = "9ca5b446bc335f34548164e0b3a08ab3a33c11326629fe35ef06739e5e13653f"
)

// crawlDigest streams the pipeline and returns the sha256 over the
// (site, vantage, persona)-sorted JSONL — the same byte surface
// cmd/crawl -sort emits.
func crawlDigest(t *testing.T, opts ...Option) string {
	t.Helper()
	return unitsDigest(t, opts)
}

// unitsDigest is crawlDigest over the merged streams of several
// pipelines, one per configuration.
func unitsDigest(t *testing.T, configs ...[]Option) string {
	t.Helper()
	var all []VisitLog
	for _, opts := range configs {
		logs, errs := New(opts...).Stream(context.Background())
		for l := range logs {
			all = append(all, l)
		}
		if err := <-errs; err != nil {
			t.Fatalf("stream: %v", err)
		}
	}
	return sortedDigest(t, all)
}

// sortedDigest returns the sha256 over logs as (site, vantage,
// persona)-sorted JSONL.
func sortedDigest(t *testing.T, logs []VisitLog) string {
	t.Helper()
	type rec struct{ key, line string }
	recs := make([]rec, 0, len(logs))
	for _, l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		recs = append(recs, rec{key: l.Site + "\x00" + l.Vantage + "\x00" + l.Persona, line: string(b)})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(r.line)
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// oneLaneConfigs splits a crawl plan into one configuration per
// (vantage, persona) cell, each crawling its cell alone as a one-lane
// crawl: the reference every multi-lane crawl must reproduce byte for
// byte. No personas means the implicit persona-free cell.
func oneLaneConfigs(base []Option, vants []Vantage, personas []string) [][]Option {
	if len(personas) == 0 {
		personas = []string{""}
	}
	var out [][]Option
	for _, v := range vants {
		for _, persona := range personas {
			c := append(append([]Option(nil), base...), WithVantages(v))
			if persona != "" {
				c = append(c, WithPersonas(persona))
			}
			out = append(out, c)
		}
	}
	return out
}

func cleanGoldenOpts() []Option {
	return []Option{
		WithSites(40), WithWorkers(4), WithSeed(7), WithInteract(true),
	}
}

func faultedGoldenOpts() []Option {
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	return []Option{
		WithSites(40), WithWorkers(4), WithSeed(7), WithInteract(true),
		WithFaults(UniformFaults(0.1, 7)),
		WithRetryPolicy(rp),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true}),
		WithBreakerAutopilot(),
		WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
	}
}

var personaNames = []string{"accept", "reject", "dismiss"}

// personaVantages are the two regions of the persona byte-stability
// tests, with region-seeded faults at rate.
func personaVantages(rate float64) []Vantage {
	return []Vantage{RegionVantage("eu-west", rate, 7), RegionVantage("us-east", rate, 7)}
}

// personaOpts is the clean persona configuration of the byte-stability
// tests without its vantages and personas, parameterized on the worker
// count the bytes must be independent of.
func personaOpts(workers int) []Option {
	return []Option{
		WithSites(30), WithWorkers(workers), WithSeed(7), WithInteract(true),
	}
}

// personaFaultedOpts is the same under the full resilience stack: 10%
// faults, retries, second pass, breaker with autopilot.
func personaFaultedOpts(workers int) []Option {
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	return []Option{
		WithSites(30), WithWorkers(workers), WithSeed(7), WithInteract(true),
		WithFaults(UniformFaults(0.1, 7)),
		WithRetryPolicy(rp),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true}),
		WithBreakerAutopilot(),
	}
}

// TestPersonaCrawlByteStable pins the determinism contract on the new
// axis: per-(site, vantage, persona) records are byte-identical across
// runs, worker counts, and lane sets (the two-vantage, three-persona
// crawl vs each of its six cells crawled alone as a one-lane crawl),
// clean and under the full faulted resilience stack.
func TestPersonaCrawlByteStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(workers int) []Option
		rate float64
	}{
		{"clean", personaOpts, 0},
		{"faulted", personaFaultedOpts, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vants := personaVantages(tc.rate)
			full := func(workers int) []Option {
				return append(tc.opts(workers), WithVantages(vants...), WithPersonas(personaNames...))
			}
			base := crawlDigest(t, full(4)...)
			if got := crawlDigest(t, full(4)...); got != base {
				t.Errorf("persona crawl not byte-stable across runs: %s vs %s", got, base)
			}
			if got := crawlDigest(t, full(1)...); got != base {
				t.Errorf("persona crawl depends on worker count: %s vs %s", got, base)
			}
			if got := unitsDigest(t, oneLaneConfigs(tc.opts(8), vants, personaNames)...); got != base {
				t.Errorf("persona crawl differs from one-lane crawls of its cells: %s vs %s", got, base)
			}
		})
	}
}

// TestPersonaConsentDelta checks the consent personas actually bite:
// over a CMP web, the accept persona must retain strictly more
// third-party tracker cookies and exfiltrated pairs than the reject
// persona (whose consent denial keeps the gated trackers out), with
// dismiss — banner ignored, cookie unset — tracking like reject.
func TestPersonaConsentDelta(t *testing.T) {
	p := New(
		WithSites(80), WithWorkers(8), WithSeed(7), WithInteract(true),
		WithPersonas("accept", "reject", "dismiss"),
	)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	acc, rej, dis := res.Personas["accept"], res.Personas["reject"], res.Personas["dismiss"]
	for name, ps := range res.Personas {
		if ps.Visits != 80 {
			t.Errorf("persona %q visited %d sites, want 80", name, ps.Visits)
		}
	}
	if acc.TPCookies <= rej.TPCookies {
		t.Errorf("accept retained %d third-party cookies, reject %d; want accept strictly more",
			acc.TPCookies, rej.TPCookies)
	}
	if acc.ExfilPairs <= rej.ExfilPairs {
		t.Errorf("accept saw %d exfiltrated pairs, reject %d; want accept strictly more",
			acc.ExfilPairs, rej.ExfilPairs)
	}
	if dis.TPCookies > rej.TPCookies {
		t.Errorf("dismiss retained %d third-party cookies, more than reject's %d", dis.TPCookies, rej.TPCookies)
	}
	rows := res.PersonaTable()
	if len(rows) != 3 {
		t.Fatalf("PersonaTable has %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Persona >= rows[i].Persona {
			t.Fatalf("PersonaTable rows not sorted: %q before %q", rows[i-1].Persona, rows[i].Persona)
		}
	}
}

// TestPersonaFreeConfigReproducesPR7Bytes is the default-config
// equivalence gate: with no personas configured, the unit-axis crawl
// stack must emit byte-identical output to the vantage-keyed PR 7
// stack, clean and under faults with breaker + autopilot + second pass.
func TestPersonaFreeConfigReproducesPR7Bytes(t *testing.T) {
	if got := crawlDigest(t, cleanGoldenOpts()...); got != pr7GoldenClean {
		t.Errorf("clean persona-free crawl diverged from PR 7 bytes:\n got %s\nwant %s", got, pr7GoldenClean)
	}
	if got := crawlDigest(t, faultedGoldenOpts()...); got != pr7GoldenFaulted {
		t.Errorf("faulted persona-free crawl diverged from PR 7 bytes:\n got %s\nwant %s", got, pr7GoldenFaulted)
	}
}
