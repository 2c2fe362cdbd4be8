package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestMetricTablesMatchBenchmarkJSON keeps the two in
// step); Moves records, for a per-layer metric, the end-to-end metric and
// workload it is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p99_us", Unit: "us", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "heap_bytes_per_object", Unit: "B", Better: "lower"},
	{Name: "wave_io", Unit: "pages", Better: "lower"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
var perLayer = []metricDef{
	{"server.stage.validate_us", "us", "lower", "p50_us on topk_cold and session_nudge"},
	{"server.stage.pin_us", "us", "lower", "p50_us on topk_cold, session_nudge and live_writes"},
	{"server.stage.traverse_us", "us", "lower", "p50_us on topk_cold and live_writes"},
	{"server.stage.merge_us", "us", "lower", "p50_us on topk_cold and session_nudge"},
	{"server.overhead_us", "us", "lower", "p50_us on topk_cold and session_nudge"},
	{"server.allocs_per_op", "count", "lower", "p50_us and ops_per_s on topk_cold and live_writes"},
	{"server.bytes_per_op", "B", "lower", "p50_us and ops_per_s on topk_cold and live_writes"},
	{"topk.searcher_us", "us", "lower", "p50_us and ops_per_s on topk_cold and live_writes; none on match_wave"},
	{"topk.batch_q1_us", "us", "lower", "p50_us and ops_per_s on topk_cold and live_writes; none on match_wave"},
	{"topk.nodes_per_query", "count", "lower", "p50_us and ops_per_s on topk_cold and live_writes"},
	{"topk.score_evals_per_query", "count", "lower", "p50_us and ops_per_s on topk_cold and live_writes"},
	{"topk.heap_ops_per_query", "count", "lower", "p50_us and ops_per_s on topk_cold and live_writes"},
	{"vec.dotsum_ns_per_point", "ns", "lower", "p50_us on topk_cold"},
	{"vec.mbrbounds_ns_per_box", "ns", "lower", "p50_us on topk_cold"},
	{"vec.dotbatch_ns_per_row", "ns", "lower", "p50_us on session_nudge"},
	{"vec.deltabound_ns", "ns", "lower", "p50_us on session_nudge"},
	{"index.mem.build_s", "s", "lower", "setup_s on every workload"},
	{"index.mem.snapshot_ns", "ns", "lower", "p50_us on session_nudge"},
	{"index.mem.readnode_ns", "ns", "lower", "p50_us on topk_cold and session_nudge"},
	{"index.mem.nodes", "count", "lower", "heap_bytes_per_object on every workload"},
	{"index.dynamic.update_us", "us", "lower", "write_p50_us and write_p99_us on live_writes"},
	{"index.dynamic.merges", "count", "lower", "write_p99_us and ops_per_s on live_writes"},
	{"index.dynamic.merge_s", "s", "lower", "write_p99_us and ops_per_s on live_writes"},
	{"index.dynamic.merge_pause_s", "s", "lower", "write_p99_us on live_writes"},
	{"index.dynamic.delta_nodes_per_read", "count", "lower", "p50_us on live_writes"},
	{"index.dynamic.delta_size_mean", "count", "lower", "p50_us on live_writes"},
	{"rescache.hit_ratio", "ratio", "higher", "ops_per_s and p50_us on session_nudge"},
	{"rescache.requal_ratio", "ratio", "higher", "ops_per_s and p50_us on session_nudge"},
	{"rescache.walk_ratio", "ratio", "lower", "p50_us on session_nudge"},
	{"rescache.evictions_per_op", "count", "lower", "ops_per_s on session_nudge"},
	{"rescache.get_ns", "ns", "lower", "p50_us on session_nudge"},
	{"rescache.put_ns", "ns", "lower", "p50_us on session_nudge"},
	{"session.nudge_ns", "ns", "lower", "p50_us on session_nudge"},
	{"session.walk_nodes_per_op", "count", "lower", "p50_us on session_nudge"},
	{"core.wave_us", "us", "lower", "p50_us and ops_per_s on match_wave; none elsewhere"},
	{"core.loops_per_wave", "count", "lower", "p50_us and ops_per_s on match_wave"},
	{"skyline.compute_us", "us", "lower", "p50_us on match_wave"},
	{"skyline.max", "count", "lower", "p50_us on match_wave"},
	{"skyline.dominance_checks_per_wave", "count", "lower", "p50_us and ops_per_s on match_wave"},
	{"ta.lists_build_us", "us", "lower", "p50_us on match_wave"},
	{"ta.reverse_top1_us", "us", "lower", "p50_us on match_wave"},
	{"ta.list_accesses_per_wave", "count", "lower", "p50_us and ops_per_s on match_wave"},
	{"index.paged.page_reads_per_wave", "count", "lower", "wave_io on every workload"},
	{"index.paged.buffer_hit_ratio", "ratio", "higher", "wave_io on every workload"},
	{"trace.overhead_ratio", "ratio", "higher", "none: the traced run's ops_per_s over the untraced run's"},
}

// quantileUS returns the q-quantile, in µs, of latencies sorted in ns, by
// the nearest-rank method: the smallest sample with at least a q share of
// the samples at or below it.
func quantileUS(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
