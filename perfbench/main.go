// Command perfbench is the repository's benchmark: it crawls a seeded
// synthetic web through the public cookieguard API under one named
// workload, checks the outputs, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on
// untraced crawls; with --trace 1 they are the per-layer ones, measured
// on traced crawls (spans around every layer call, a CPU profile, and
// layer counters) alternated with untraced crawls whose throughput gives
// the tracing overhead. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 24 --trace 0
//
// --manifest and --layers print BENCHMARK.json and perfbench/layers.json,
// which a test keeps in step with the metric tables in metrics.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name: study, resilient or live")
		seed     = flag.Uint64("seed", 1, "seed of the generated web and the reader's request mix")
		seconds  = flag.Float64("seconds", runSeconds, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spans    = flag.String("spans", ".bench_build/spans", "directory the span file is written to")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for crawl journals")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		layers   = flag.Bool("layers", false, "print the per-layer metric map and exit")
	)
	flag.Parse()
	switch {
	case *manifest:
		printJSON(buildManifest())
		return
	case *layers:
		printJSON(buildLayerMap())
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (study|resilient|live), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	epoch := time.Now()
	b := &bench{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, tmp: *tmp, epoch: epoch, tr: newTracer(epoch),
		profile: map[string]int64{}, sites: map[crawlKey][]string{}, hashes: map[crawlKey]string{},
	}
	res, lines, err := b.run(ctx)
	if werr := b.tr.write(spanPath(*spans, w.name, *seed, b.traced)); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := encodeIndented(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(b)
}

// minReps is the fewest measured repetitions a run makes, whatever
// --seconds says.
const minReps = 3

// run makes measured repetitions until the time is up and reports.
// Untraced runs crawl a new web set each repetition. A traced run crawls
// each set twice, traced then untraced, so the tracing overhead compares
// like with like. Each run also crawls web set 0 once in the other mode
// and checks that it gives the same StableJSON: a traced run does that
// first; an untraced run does it last, after reading peak RSS, so the
// traced crawl's memory never shows in peak_rss_mb.
func (b *bench) run(ctx context.Context) (result, []string, error) {
	var all, measured []rep
	if b.traced {
		ref, err := b.repetition(ctx, false, 0)
		if err != nil {
			return result{}, nil, err
		}
		all = append(all, ref)
	}
	deadline := time.Now().Add(b.seconds)
	for i := 0; len(measured) < minReps || time.Now().Before(deadline) || (b.traced && i%2 == 1); i++ {
		if err := ctx.Err(); err != nil {
			return result{}, nil, err
		}
		traced, set := false, i
		if b.traced {
			traced, set = i%2 == 0, i/2
		}
		r, err := b.repetition(ctx, traced, set)
		if err != nil {
			return result{}, nil, err
		}
		measured = append(measured, r)
		all = append(all, r)
	}
	rss := peakRSSMB()
	if !b.traced {
		ref, err := b.repetition(ctx, true, 0)
		if err != nil {
			return result{}, nil, err
		}
		all = append(all, ref)
	}
	// The operations are the reads; a crawl error ends the run. Units
	// that end incomplete are the program's correct answer for sites
	// that fail by design, and unit_failed_frac reports them.
	res := result{Correct: len(b.problems) == 0, Metrics: map[string]metricValue{}}
	for _, r := range all {
		for _, c := range r.crawls {
			res.Attempted += len(c.reads)
			for _, s := range c.reads {
				if !s.ok {
					res.Failed++
				}
			}
		}
	}
	var (
		values map[string]float64
		lines  []string
		err    error
	)
	if b.traced {
		values, lines = b.layerValues(measured)
		res.Metrics, err = fill(layerMetrics(), values)
	} else {
		values = endToEndValues(measured, rss)
		res.Metrics, err = fill(endToEnd, values)
	}
	if err != nil {
		return result{}, nil, err
	}
	lines = append(lines, describe(b, measured, values)...)
	return res, lines, nil
}

// endToEndValues reports the untraced repetitions. Work figures are
// pooled over every crawl (each repetition crawls different webs, so
// pooling covers the most distinct sites); set-up time is the median
// repetition's; latency samples are pooled; rss is the process's peak
// RSS after the measured repetitions.
func endToEndValues(reps []rep, rss float64) map[string]float64 {
	var setup, lat, fresh []float64
	var units, wall, cpu, allocs, bytesPer, failed, virt float64
	reads, ok := 0, 0
	for _, r := range reps {
		setup = append(setup, r.sum(func(c crawlOut) float64 { return c.setup.Seconds() }))
		for _, c := range r.crawls {
			units += float64(c.units)
			wall += c.wall.Seconds()
			cpu += ms(c.cpu)
			allocs += float64(c.mallocs)
			bytesPer += float64(c.allocBytes)
			failed += float64(c.incomplete)
			virt += float64(c.virtualMs)

			for _, s := range c.reads {
				reads++
				if s.ok {
					ok++
				}
				lat = append(lat, ms(s.latency()))
			}
			fresh = append(fresh, c.fresh...)
		}
	}
	return map[string]float64{
		"setup_s":             median(setup),
		"units_per_s":         units / wall,
		"cpu_ms_per_unit":     cpu / units,
		"allocs_per_unit":     allocs / units,
		"bytes_per_unit":      bytesPer / units,
		"peak_rss_mb":         rss,
		"unit_failed_frac":    failed / units,
		"virtual_ms_per_unit": virt / units,
		"read_p50_ms":         median(lat),
		"read_p99_ms":         tail(lat, 0.99),
		"read_ok_frac":        ratio(float64(ok), float64(reads)),
		"fresh_p50_ms":        median(fresh),
		"fresh_p90_ms":        tail(fresh, 0.9),
	}
}

// cpuMetrics are the runtime's cumulative CPU-class estimates.
type cpuMetrics struct{ gc, total float64 }

func readCPUMetrics() cpuMetrics {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var m cpuMetrics
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.total = s[1].Value.Float64()
	}
	return m
}

func (m cpuMetrics) sub(o cpuMetrics) cpuMetrics { return cpuMetrics{m.gc - o.gc, m.total - o.total} }

// layerValues reports the traced invocation: span self times, the
// traced crawls' layer counters, CPU-profile shares, and the tracing
// overhead against the interleaved untraced repetitions.
func (b *bench) layerValues(reps []rep) (map[string]float64, []string) {
	v := map[string]float64{}
	self := selfMs(b.tr.snapshot())
	var tracedUnits float64
	var tracedUPS, plainUPS, guardCPU, guardVirt, late, bytesRead []float64
	var plainCPU, plainWall time.Duration
	var plainRuntime cpuMetrics
	perCrawl := map[string][]float64{}
	for _, r := range reps {
		for _, c := range r.crawls {
			for _, s := range c.reads {
				late = append(late, ms(s.lateness()))
				if r.traced {
					bytesRead = append(bytesRead, float64(s.bytes))
				}
			}
		}
		if !r.traced {
			plainUPS = append(plainUPS, r.unitsPerS())
			for _, c := range r.crawls {
				plainCPU += c.cpu
				plainWall += c.wall
				plainRuntime.gc += c.runtimeCPU.gc
				plainRuntime.total += c.runtimeCPU.total
			}
			continue
		}
		tracedUPS = append(tracedUPS, r.unitsPerS())
		tracedUnits += r.units()
		for _, c := range r.crawls {
			for k, x := range c.layer {
				perCrawl[k] = append(perCrawl[k], x)
			}
		}
		if b.w.guardPairs {
			for i := 0; i+1 < len(r.crawls); i += 2 {
				m, g := r.crawls[i], r.crawls[i+1]
				guardCPU = append(guardCPU, ms(g.cpu)/float64(g.units)-ms(m.cpu)/float64(m.units))
				guardVirt = append(guardVirt, float64(g.virtualMs)/float64(g.units)-float64(m.virtualMs)/float64(m.units))
			}
		}
	}
	for k, xs := range perCrawl {
		v[k] = median(xs)
	}
	// Both deltas are 0 where no guarded crawl runs.
	v["guard.cpu_ms_per_unit_delta"] = median(guardCPU)
	v["guard.virtual_ms_per_unit_delta"] = median(guardVirt)
	sum := func(name string) float64 {
		var t float64
		for _, x := range self[name] {
			t += x
		}
		return t
	}
	for metric, spanName := range map[string]string{
		"webgen.build_ms":         "webgen.build",
		"netsim.build_ms":         "netsim.build",
		"browser.visit_ms":        "browser.visit",
		"instrument.build_log_ms": "instrument.build_log",
		"analysis.finalize_ms":    "analysis.finalize",
		"analysis.stable_json_ms": "analysis.stable_json",
		"analysis.snapshot_ms":    "analysis.snapshot",
		"resultstore.publish_ms":  "resultstore.publish",
	} {
		v[metric] = median(self[spanName])
	}
	v["crawler.wait_ms_per_unit"] = ratio(sum("crawler.wait"), tracedUnits)
	v["analysis.observe_ms_per_unit"] = ratio(sum("analysis.observe"), tracedUnits)
	v["server.bytes_per_read"] = mean(bytesRead)
	v["loadgen.late_p99_ms"] = tail(late, 0.99)

	var total int64
	byLayer := map[string]int64{}
	for fn, n := range b.profile {
		total += n
		byLayer[layerOf(fn)] += n
	}
	for _, pkg := range shares {
		v[pkg+".cpu_share"] = ratio(float64(byLayer[pkg]), float64(total))
	}
	v["runtime.gc_cpu_frac"] = ratio(plainRuntime.gc, plainRuntime.total)
	v["runtime.cpu_util"] = ratio(plainCPU.Seconds(), plainWall.Seconds()) / float64(nproc())
	v["trace.units_per_s_untraced"] = median(plainUPS)
	v["trace.units_per_s_traced"] = median(tracedUPS)
	v["trace.overhead_frac"] = 1 - ratio(median(tracedUPS), median(plainUPS))
	line := fmt.Sprintf("units_per_s untraced %.1f traced %.1f: tracing overhead %.1f%% (%d untraced, %d traced repetitions)",
		v["trace.units_per_s_untraced"], v["trace.units_per_s_traced"], 100*v["trace.overhead_frac"], len(plainUPS), len(tracedUPS))
	return v, []string{line}
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// describe renders the human-readable lines printed before the JSON.
func describe(b *bench, reps []rep, values map[string]float64) []string {
	var units, reads, fresh int
	for _, r := range reps {
		units += int(r.units())
		for _, c := range r.crawls {
			reads += len(c.reads)
			fresh += len(c.fresh)
		}
	}
	lines := []string{fmt.Sprintf("workload %s seed %d: %d repetitions, %d units, %d reads, %d freshness samples",
		b.w.name, b.seed, len(reps), units, reads, fresh)}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		lines = append(lines, fmt.Sprintf("  %-34s %.6g", k, values[k]))
	}
	return lines
}
