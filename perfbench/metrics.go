package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metric is one reported number: its name, unit and direction. bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression (0 for per-layer
// metrics, which carry no bound).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the crawl and its read API sees. Every
// workload reports every one of them (see BENCHMARK.json for the
// workloads' reasons and layers.json for the per-layer map).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"units_per_s", "1/s", "higher", 0.24},
	{"cpu_ms_per_unit", "ms", "lower", 0.24},
	{"allocs_per_unit", "count", "lower", 0.15},
	{"bytes_per_unit", "B", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.24},
	{"unit_failed_frac", "ratio", "lower", 0.2},
	{"virtual_ms_per_unit", "ms", "lower", 0.1},
	{"read_p50_ms", "ms", "lower", 0.24},
	{"read_p99_ms", "ms", "lower", 0.24},
	{"read_ok_frac", "ratio", "higher", 0.05},
	{"fresh_p50_ms", "ms", "lower", 0.24},
	{"fresh_p90_ms", "ms", "lower", 0.24},
}

// move names an end-to-end metric a layer metric should move, and where.
type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// layerMetric is a per-layer metric of the traced run together with the
// end-to-end metrics it should move and the workloads where it should
// stay flat.
type layerMetric struct {
	metric
	Moves  []move   `json:"moves"`
	FlatOn []string `json:"flat_on,omitempty"`
	Note   string   `json:"note,omitempty"`
}

func mv(workload string, metrics ...string) []move {
	out := make([]move, len(metrics))
	for i, m := range metrics {
		out[i] = move{m, workload}
	}
	return out
}

func cat(groups ...[]move) []move {
	var out []move
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

var (
	allSetup    = cat(mv("study", "setup_s"), mv("resilient", "setup_s"), mv("live", "setup_s"))
	studyCost   = mv("study", "cpu_ms_per_unit", "allocs_per_unit", "units_per_s")
	studyCPU    = mv("study", "cpu_ms_per_unit", "units_per_s")
	resilFail   = mv("resilient", "units_per_s", "unit_failed_frac", "virtual_ms_per_unit")
	journalCost = mv("resilient", "units_per_s", "cpu_ms_per_unit")
	liveFresh   = mv("live", "fresh_p50_ms", "fresh_p90_ms", "allocs_per_unit")
	allRead     = cat(mv("live", "read_p50_ms", "read_p99_ms"), mv("study", "read_p50_ms"), mv("resilient", "read_p50_ms"))
)

func lm(name, unit, better string, moves []move, flat []string, note string) layerMetric {
	return layerMetric{metric{name, unit, better, 0}, moves, flat, note}
}

// shares are the packages whose flat CPU-profile samples, taken while
// traced crawls run, are summed into <layer>.cpu_share; "runtime"
// includes GC and allocation.
var shares = []string{"jsdsl", "dom", "cookiejar", "browser", "netsim", "analysis", "filterlist", "journal", "runtime"}

// perLayer is the traced run's metric set, in report order. Layers with
// no call boundary inside a visit are measured by CPU-profile share.
var perLayer = func() []layerMetric {
	ls := []layerMetric{
		lm("webgen.build_ms", "ms", "lower", allSetup, nil, "webgen.Build timed alone"),
		lm("netsim.build_ms", "ms", "lower", allSetup, nil, "Web.BuildInternet timed alone"),
		lm("crawler.wait_ms_per_unit", "ms", "lower", resilFail, nil, "consumer time blocked on the Stream channel"),
		lm("crawler.shed_frac", "ratio", "lower", resilFail, []string{"study"}, "SchedStats ShedVisits / units"),
		lm("crawler.requeue_frac", "ratio", "lower", resilFail, []string{"study"}, "SchedStats Requeued / units"),
		lm("crawler.second_pass_kept_frac", "ratio", "higher", resilFail, []string{"study"}, "SchedStats SecondPassKept / Requeued"),
		lm("crawler.circuits_opened", "count", "lower", resilFail, []string{"study"}, "SchedStats Opened per crawl"),
		lm("netsim.requests_per_unit", "count", "lower", cat(mv("study", "cpu_ms_per_unit"), mv("resilient", "unit_failed_frac")), nil, "Net.Requests delta / units"),
		lm("netsim.fault_frac", "ratio", "lower", mv("resilient", "unit_failed_frac"), []string{"study", "live"}, "Net.Faults / Net.Requests"),
		lm("netsim.tapped_5xx_frac", "ratio", "lower", mv("resilient", "unit_failed_frac"), nil, "Net.Tap count of served 5xx exchanges / exchanges"),
		lm("artifact.program_hit_frac", "ratio", "higher", cat(mv("study", "cpu_ms_per_unit"), mv("resilient", "unit_failed_frac")), nil, "CacheStats program tier"),
		lm("artifact.dom_hit_frac", "ratio", "higher", cat(mv("study", "cpu_ms_per_unit"), mv("resilient", "unit_failed_frac")), nil, "CacheStats DOM tier"),
		lm("artifact.body_hit_frac", "ratio", "higher", cat(mv("study", "cpu_ms_per_unit"), mv("resilient", "unit_failed_frac")), nil, "CacheStats body tier"),
		lm("browser.visit_ms", "ms", "lower", cat(studyCost, mv("resilient", "cpu_ms_per_unit")), nil, "browser.New+Visit+Release replayed over a fixed site sample"),
		lm("instrument.build_log_ms", "ms", "lower", cat(studyCost, mv("resilient", "cpu_ms_per_unit")), nil, "Recorder.BuildVisitLog in the same replay"),
		lm("browser.pool_reuse_frac", "ratio", "higher", studyCost, nil, "PoolStats reuse over the traced crawl"),
		lm("jsdsl.interps_per_unit", "count", "lower", studyCost, nil, "PoolStats interpreter acquisitions / units"),
		lm("dom.arenas_per_unit", "count", "lower", studyCost, nil, "PoolStats arena acquisitions / units"),
		lm("instrument.events_per_unit", "count", "lower", studyCost, nil, "cookie events per visit log"),
		lm("cookiejar.ops_per_unit", "count", "lower", mv("study", "cpu_ms_per_unit"), nil, "WithMiddleware shim call count / units"),
		lm("cookiejar.ns_per_op", "ns", "lower", mv("study", "cpu_ms_per_unit"), nil, "shim-timed inner call (recorder + jar)"),
		lm("guard.cpu_ms_per_unit_delta", "ms", "lower", mv("study", "units_per_s", "cpu_ms_per_unit", "virtual_ms_per_unit"), []string{"resilient", "live"},
			"guarded crawl minus measurement crawl of the same web; 0 where no guarded crawl runs"),
		lm("guard.virtual_ms_per_unit_delta", "ms", "lower", mv("study", "units_per_s", "cpu_ms_per_unit", "virtual_ms_per_unit"), []string{"resilient", "live"},
			"Table 4 overhead analogue, same halves as the CPU delta"),
		lm("journal.records_per_unit", "count", "lower", journalCost, []string{"study", "live"}, "CheckpointStats Records / units; 0 where no journal runs"),
		lm("journal.bytes_per_unit", "B", "lower", journalCost, []string{"study", "live"}, "CheckpointStats BytesWritten / units"),
		lm("journal.fsyncs_per_1k_units", "count", "lower", journalCost, []string{"study", "live"}, "CheckpointStats Fsyncs per 1000 units"),
		lm("analysis.observe_ms_per_unit", "ms", "lower", studyCPU, nil, "self time of Observe spans / units"),
		lm("analysis.finalize_ms", "ms", "lower", studyCPU, nil, "Finalize span per crawl"),
		lm("analysis.stable_json_ms", "ms", "lower", studyCPU, nil, "Results.StableJSON span per crawl"),
		lm("analysis.snapshot_ms", "ms", "lower", liveFresh, []string{"study", "resilient"}, "Sharded.Snapshot span; 0 off the publishing path"),
		lm("resultstore.publish_ms", "ms", "lower", liveFresh, []string{"study", "resilient"}, "ResultStore().Publish span"),
		lm("resultstore.wake_ms", "ms", "lower", liveFresh, []string{"study", "resilient"}, "publish start to in-process Wait return"),
		lm("resultstore.publishes", "count", "higher", liveFresh, []string{"study", "resilient"}, "publishes per crawl"),
		lm("server.encode_ms", "ms", "lower", allRead, nil, "service time of the first read of an endpoint at a new index"),
		lm("server.cached_ms", "ms", "lower", allRead, nil, "service time of a repeat read at the same index"),
		lm("server.bytes_per_read", "B", "lower", allRead, nil, "mean response body size"),
		lm("loadgen.late_p99_ms", "ms", "lower", nil, []string{"study", "resilient", "live"}, "how late the open-loop generator sent; a check on the load, not the program"),
	}
	for _, pkg := range shares {
		ls = append(ls, lm(pkg+".cpu_share", "ratio", "lower", studyCPU, nil, "flat CPU-profile samples in package "+pkg))
	}
	return append(ls,
		lm("runtime.gc_cpu_frac", "ratio", "lower", cat(studyCPU, mv("live", "read_p99_ms")), nil, "runtime/metrics GC CPU over total CPU during untraced crawls"),
		lm("runtime.cpu_util", "ratio", "higher", cat(mv("study", "units_per_s"), mv("resilient", "units_per_s")), nil, "process CPU / wall / nproc in untraced crawls; explains wall-clock noise"),
		lm("trace.units_per_s_untraced", "1/s", "higher", nil, nil, "untraced crawls of the traced invocation"),
		lm("trace.units_per_s_traced", "1/s", "higher", nil, nil, "traced crawls of the traced invocation"),
		lm("trace.overhead_frac", "ratio", "lower", nil, nil, "1 - traced/untraced units_per_s"),
	)
}()

// workloadSpec is the manifest view of a workload.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json, field order as checked in.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

// runSeconds is how long one benchmark invocation measures.
const runSeconds = 24

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadSpec{w.name, w.why})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, l.metric)
	}
	return m
}

// layerMap is layers.json: for every per-layer metric, the end-to-end
// metrics and workloads it should move and where it should stay flat,
// plus the layers deliberately left out.
type layerMap struct {
	Metrics      []layerMetric     `json:"metrics"`
	NotExercised map[string]string `json:"not_exercised"`
}

func buildLayerMap() layerMap {
	return layerMap{
		Metrics: perLayer,
		NotExercised: map[string]string{
			"shard": "in-process shards run at 0.79-0.86x unsharded and are listed for deletion; no workload uses WithShards",
		},
	}
}

func encodeIndented(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the metrics map for the given metric set, failing on a
// metric the run did not measure.
func fill(set []metric, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(set))
	var missing []string
	for _, m := range set {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

func layerMetrics() []metric {
	out := make([]metric, len(perLayer))
	for i, l := range perLayer {
		out[i] = l.metric
	}
	return out
}
