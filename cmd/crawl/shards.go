package main

// The subprocess shard driver: -shards N -shard-driver subprocess
// re-execs this binary once per shard (crawl -shard i/N), supervises
// the processes consul-agent style through the shard coordinator — a
// shard that exits non-zero (including the -crash-after harness's exit
// 3) is adopted: relaunched to resume from its own checkpoint journal
// under <checkpoint>/shard-<i>, replaying completed units from stored
// logs with zero fabric requests — and merges the per-shard outputs:
// -sort outputs interleave through a k-way merge on the same (site,
// vantage, persona) key each shard sorted by, so the merged file is
// byte-identical to an unsharded -sort run; unsorted outputs
// concatenate in shard order (completion order was never stable).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"cookieguard/internal/shard"
)

// shardSupervisor holds everything the subprocess driver needs from
// the parsed flag set.
type shardSupervisor struct {
	shards     int
	sortOut    bool
	outPath    string
	checkpoint string
	crashAfter int
	// workerArgs are the crawl-configuration flags every worker
	// receives verbatim (sites, seed, faults, scheduler knobs, ...).
	workerArgs []string
}

// run drives the whole subprocess-sharded crawl and returns the
// process exit code.
func (s *shardSupervisor) run(ctx context.Context) int {
	self, err := os.Executable()
	fatal(err)
	// Worker outputs live next to the shard journals; without a
	// checkpoint (feedback-free crawls only) a scratch directory holds
	// them for the duration of the merge.
	base := s.checkpoint
	if base == "" {
		base, err = os.MkdirTemp("", "crawl-shards-*")
		fatal(err)
		defer os.RemoveAll(base)
	} else {
		fatal(os.MkdirAll(base, 0o755))
	}
	outFile := func(i int) string { return filepath.Join(base, fmt.Sprintf("shard-%d.jsonl", i)) }

	retries := 0
	if s.checkpoint != "" {
		retries = 2
	}
	co := &shard.Coordinator{
		Shards:  s.shards,
		Retries: retries,
		Run: func(ctx context.Context, i, attempt int) error {
			args := append([]string(nil), s.workerArgs...)
			args = append(args, "-shard", fmt.Sprintf("%d/%d", i, s.shards), "-o", outFile(i))
			if s.checkpoint != "" {
				args = append(args, "-checkpoint", filepath.Join(base, fmt.Sprintf("shard-%d", i)))
			}
			if i == 0 && attempt == 0 && s.crashAfter > 0 {
				// The kill-and-adopt harness: shard 0's first launch dies
				// after N journaled units (exit 3); the adopting relaunch
				// must not re-arm or it would crash forever.
				args = append(args, "-crash-after", strconv.Itoa(s.crashAfter))
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			// An interrupt reaches workers as SIGTERM so they drain
			// in-flight visits and flush their journals before dying.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 15 * time.Second
			return cmd.Run()
		},
		OnState: func(i int, st shard.State, err error) {
			switch st {
			case shard.StateAdopted:
				fmt.Fprintf(os.Stderr, "crawl: shard %d/%d died (%v); adopting — resuming from its journal\n", i, s.shards, err)
			case shard.StateFailed:
				fmt.Fprintf(os.Stderr, "crawl: shard %d/%d failed permanently: %v\n", i, s.shards, err)
			}
		},
	}
	if err := co.Execute(ctx); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "crawl: interrupted; shard workers drained")
			return 130
		}
		fmt.Fprintln(os.Stderr, "crawl:", err)
		return 1
	}

	out := os.Stdout
	if s.outPath != "-" {
		f, err := os.Create(s.outPath)
		fatal(err)
		defer f.Close()
		out = f
	}
	files := make([]*os.File, s.shards)
	readers := make([]io.Reader, s.shards)
	for i := range files {
		f, err := os.Open(outFile(i))
		fatal(err)
		defer f.Close()
		files[i], readers[i] = f, f
	}
	if s.sortOut {
		fatal(shard.MergeSortedJSONL(out, readers, shardSortKey))
	} else {
		for _, r := range readers {
			_, err := io.Copy(out, r)
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "crawl: merged %d shard outputs\n", s.shards)
	return 0
}

// shardSortKey extracts the (site, vantage, persona) sort key from one
// output line — the exact key every worker's -sort pass ordered by, so
// the k-way merge reproduces the unsharded sort byte for byte.
func shardSortKey(line []byte) (string, error) {
	var l struct {
		Site    string `json:"site"`
		Vantage string `json:"vantage"`
		Persona string `json:"persona"`
	}
	if err := json.Unmarshal(line, &l); err != nil {
		return "", fmt.Errorf("crawl: shard merge: %w", err)
	}
	return l.Site + "\x00" + l.Vantage + "\x00" + l.Persona, nil
}

// workerArgs rebuilds the crawl-configuration flag list every shard
// worker receives verbatim. Per-shard flags (-shard, -o, -checkpoint,
// -crash-after) are appended by the supervisor per launch; output and
// serving flags never propagate (workers write shard files the
// supervisor merges).
func workerArgs(sites, workers int, seed uint64, guarded, sortOut bool, faults float64,
	retries int, secondPass, breaker, autopilot bool, vantages string,
	personas string, cmp, pooling, verbose bool) []string {
	args := []string{
		"-sites", strconv.Itoa(sites),
		"-workers", strconv.Itoa(workers),
		"-seed", strconv.FormatUint(seed, 10),
		"-retries", strconv.Itoa(retries),
		fmt.Sprintf("-pooling=%t", pooling),
	}
	if guarded {
		args = append(args, "-guard")
	}
	if sortOut {
		args = append(args, "-sort")
	}
	if faults > 0 {
		args = append(args, "-faults", strconv.FormatFloat(faults, 'g', -1, 64))
	}
	if secondPass {
		args = append(args, "-second-pass")
	}
	if breaker {
		args = append(args, "-breaker")
	}
	if autopilot {
		args = append(args, "-autopilot")
	}
	if vantages != "" {
		args = append(args, "-vantages", vantages)
	}
	if personas != "" {
		args = append(args, "-personas", personas)
	}
	if cmp {
		args = append(args, "-cmp")
	}
	if verbose {
		args = append(args, "-v")
	}
	return args
}

// parseShardSpec parses the -shard i/N worker flag.
func parseShardSpec(spec string) (index, count int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &index, &count); err != nil {
		return 0, 0, fmt.Errorf("crawl: bad -shard %q (want i/N)", spec)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("crawl: -shard %q out of range", spec)
	}
	return index, count, nil
}
