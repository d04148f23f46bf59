package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// The read path is driven over two HTTP connections from this process:
// an open-loop reader sending a fixed-rate mix of /v1 reads, and a
// follower chasing /v1/progress with blocking queries.

// endpoint is one /v1 read the reader sends. cached marks the
// versioned views the server encodes once per snapshot index; the site
// record is marshalled per request and /v1/stats is never cached.
type endpoint struct {
	path   string
	weight int
	cached bool
}

// endpoints is the reader's mix, a synthetic load: the repository states
// no production read mix. The weights follow what the server states
// about its callers (server.go: "a dashboard polls tables, not single
// sites"; cmd/experiments' serve bench polls one cached table): the five
// cached views a dashboard refreshes carry 20 of 22 shares, and the
// per-request site record and /v1/stats one share each.
var endpoints = []endpoint{
	{"/v1/summary", 4, true},
	{"/v1/tables/retention", 4, true},
	{"/v1/tables/actions", 4, true},
	{"/v1/tables/failures", 4, true},
	{"/v1/progress", 4, true},
	{"/v1/sites/", 1, false},
	{"/v1/stats", 1, false},
}

const (
	epSites = 5
	epStats = 6
)

// pick draws an endpoint index by weight.
func pick(rng *rand.Rand) int {
	total := 0
	for _, e := range endpoints {
		total += e.weight
	}
	n := rng.IntN(total)
	for i, e := range endpoints {
		if n < e.weight {
			return i
		}
		n -= e.weight
	}
	return len(endpoints) - 1
}

// oneConn returns a client that keeps at most one connection open.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// get fetches url and drains the body, returning status, X-Result-Index
// and body.
func get(ctx context.Context, c *http.Client, url string) (status int, index uint64, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, nil, err
	}
	if h := resp.Header.Get("X-Result-Index"); h != "" {
		if index, err = strconv.ParseUint(h, 10, 64); err != nil {
			return resp.StatusCode, 0, nil, fmt.Errorf("bad X-Result-Index %q", h)
		}
	}
	return resp.StatusCode, index, body, nil
}

// reader is the load generator. With a rate it is open-loop: request i
// is due at start + i/rate whatever happened to earlier requests, and is
// timed from its due time. With rate 0 it is closed-loop: each request
// is due when the previous answer has arrived.
type reader struct {
	client *http.Client
	base   string
	rate   float64
	sites  []string // candidates for /v1/sites/{site}
	rng    *rand.Rand
	epoch  time.Time
}

// run sends requests until limit have been sent (no limit when 0) or
// stop closes, and returns one sample per request. Every answer must be
// 200, except that while the crawl is still running (final false) a 404
// from the site endpoint is correct: the site is not in the snapshot yet.
// Versioned responses must never go back in index on this connection;
// monotonic reports whether they did not.
func (r *reader) run(ctx context.Context, stop <-chan struct{}, limit int, final bool) (out []readSample, monotonic bool) {
	var interval time.Duration
	if r.rate > 0 {
		interval = time.Duration(float64(time.Second) / r.rate)
	}
	start := time.Since(r.epoch)
	var last uint64
	monotonic = true
	for i := 0; limit <= 0 || i < limit; i++ {
		due := start + time.Duration(i)*interval
		if interval == 0 {
			due = time.Since(r.epoch)
		}
		if wait := due - time.Since(r.epoch); wait > 0 {
			select {
			case <-stop:
				return out, monotonic
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return out, monotonic
			default:
			}
		}
		ep := pick(r.rng)
		url := r.base + endpoints[ep].path
		if ep == epSites {
			url += r.sites[r.rng.IntN(len(r.sites))]
		}
		s := readSample{endpoint: ep, due: due, sent: time.Since(r.epoch)}
		status, index, body, err := get(ctx, r.client, url)
		s.done = time.Since(r.epoch)
		s.index, s.bytes = index, len(body)
		s.ok = err == nil && (status == http.StatusOK || (!final && ep == epSites && status == http.StatusNotFound))
		if ep != epStats && err == nil {
			if index < last {
				monotonic = false
			}
			last = max(last, index)
		}
		out = append(out, s)
	}
	return out, monotonic
}

// progressBody is the /v1/progress payload.
type progressBody struct {
	Index uint64 `json:"index"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Final bool   `json:"final"`
}

// follow chases /v1/progress with blocking queries from index 0 until it
// receives the final snapshot, and returns every snapshot it received.
// It fails on a transport error, a non-200 answer, or an index that goes
// back.
func follow(ctx context.Context, c *http.Client, base string, epoch time.Time) ([]receipt, error) {
	var (
		out   []receipt
		index uint64
	)
	for {
		status, hdr, body, err := get(ctx, c, fmt.Sprintf("%s/v1/progress?index=%d&wait=20s", base, index))
		at := time.Since(epoch)
		if err != nil {
			return out, fmt.Errorf("follow: %w", err)
		}
		if status != http.StatusOK {
			return out, fmt.Errorf("follow: status %d", status)
		}
		var pb progressBody
		if err := json.Unmarshal(body, &pb); err != nil {
			return out, fmt.Errorf("follow: %w", err)
		}
		if hdr < index || pb.Index != hdr {
			return out, fmt.Errorf("follow: index went from %d to %d (body %d)", index, hdr, pb.Index)
		}
		if hdr > index {
			out = append(out, receipt{at: at, index: hdr, done: pb.Done, final: pb.Final})
		}
		if pb.Final {
			return out, nil
		}
		index = hdr
	}
}
