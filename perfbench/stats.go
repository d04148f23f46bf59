package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailQuantile is the quantile reported for a wanted tail percentile over
// n samples: want itself when at least minBeyond samples lie beyond it,
// else the highest quantile that leaves minBeyond beyond, never below the
// median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	if float64(n)*(1-want) >= minBeyond {
		return want
	}
	return math.Max(0.5, 1-minBeyond/float64(n))
}

// tail returns the tail percentile of xs under the minBeyond rule.
func tail(xs []float64, want float64) float64 {
	return quantile(xs, tailQuantile(len(xs), want))
}

// readSample is one open-loop request. Times are offsets from the
// benchmark's epoch.
type readSample struct {
	endpoint int
	due      time.Duration // when the schedule said to send
	sent     time.Duration // when the generator actually sent
	done     time.Duration // when the whole body had arrived
	ok       bool
	index    uint64 // X-Result-Index, 0 when absent
	bytes    int
}

// latency is the open-loop latency: from when the request was due, so a
// stall also charges the wait it imposes on every later request.
func (s readSample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind schedule the generator sent the request.
func (s readSample) lateness() time.Duration { return s.sent - s.due }

// service is the time the server took once the request was sent.
func (s readSample) service() time.Duration { return s.done - s.sent }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// receipt is one snapshot the follower received.
type receipt struct {
	at    time.Duration
	index uint64
	done  int
	final bool
}

// staleness is per-unit freshness for a crawl whose results appear in
// one final snapshot: for every unit n the snapshot covers, the time
// from progressAt[n] to the snapshot's receipt. ok is false when a
// covered count was never reported.
func staleness(progressAt []time.Duration, r receipt) (out []float64, ok bool) {
	if r.done >= len(progressAt) {
		return nil, false
	}
	for n := 1; n <= r.done; n++ {
		if progressAt[n] == 0 {
			return nil, false
		}
		out = append(out, ms(r.at-progressAt[n]))
	}
	return out, true
}

// freshness joins the follower's receipts with the crawl's progress
// timestamps: progressAt[n] is when the WithProgress count reached n.
// A snapshot stamped Done=n is as fresh as the time from progressAt[n]
// to its receipt. Receipts of the empty snapshot (Done=0) carry no
// crawl data and are skipped; ok is false when a receipt names a count
// the crawl never reported.
func freshness(progressAt []time.Duration, rs []receipt) (out []float64, ok bool) {
	for _, r := range rs {
		if r.done == 0 {
			continue
		}
		if r.done >= len(progressAt) || progressAt[r.done] == 0 {
			return nil, false
		}
		out = append(out, ms(r.at-progressAt[r.done]))
	}
	return out, true
}
