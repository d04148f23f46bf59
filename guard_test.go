package cookieguard

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// Guarded golden hashes pin the bytes the guarded crawl emitted before
// the guard's creator dataset moved from a per-visit message-loop
// goroutine into the Guard itself. Enforcement is a pure function of
// the operation sequence, so the move must reproduce them bit for bit:
// the default policy, the entity whitelist, and the default policy
// under a fault schedule (retries re-run guarded visits with fresh
// guards).
const (
	guardGoldenDefault   = "e0f7c86669aa750b8bcf4cdcbd47a8139aa9c6611a0cb33909107fcb411964c6"
	guardGoldenWhitelist = "d0e879ec149958e5d2b0b55e39a3b7ac9f6c3dde1d91de6bf11f67a03aa98dd2"
	guardGoldenFaulted   = "2b834807149354fff3fe3fe6c951ecceae95e2717f596c380e67f74a4f161311"
)

func guardGoldenOpts(pol Policy, extra ...Option) []Option {
	return append([]Option{
		WithSites(40), WithWorkers(4), WithSeed(7), WithInteract(true), WithGuard(pol),
	}, extra...)
}

func TestGuardedCrawlGoldenHashes(t *testing.T) {
	entities := New(WithSites(40), WithSeed(7)).Web.Entities
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	cases := []struct {
		name, want string
		opts       []Option
	}{
		{"default", guardGoldenDefault, guardGoldenOpts(DefaultGuardPolicy())},
		{"whitelist", guardGoldenWhitelist, guardGoldenOpts(WhitelistGuardPolicy(entities))},
		{"faulted", guardGoldenFaulted, guardGoldenOpts(DefaultGuardPolicy(),
			WithFaults(UniformFaults(0.1, 7)), WithRetryPolicy(rp))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := crawlDigest(t, tc.opts...); got != tc.want {
				t.Fatalf("guarded %s crawl digest = %s, want golden %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestGuardedRunLeaksNoGoroutine: a guarded Run leaves no goroutine
// behind. Each visit gets its own Guard, so any per-guard goroutine
// that outlives its visit shows up here once per unit.
func TestGuardedRunLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(WithSites(60), WithWorkers(4), WithSeed(3), WithInteract(true), WithGuard(DefaultGuardPolicy()))
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Pipeline workers exit asynchronously after Run returns; give them
	// a moment before counting.
	deadline := time.Now().Add(5 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("guarded Run leaked %d goroutines (%d before, %d after)", after-before, before, after)
	}
}
