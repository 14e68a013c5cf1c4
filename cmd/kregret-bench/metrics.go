package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metricDef describes one reported metric. The end-to-end entries with
// gated set, and the per-layer entries with gated set, are exactly the
// ones BENCHMARK.json lists (bench_test.go keeps the two in step): the
// ones every workload reports.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is how much the metric may worsen before -compare calls it
	// a regression: a share of the base median, or, with abs, an
	// absolute amount. A bound of 0 makes any worse run a regression.
	bound float64
	abs   bool
	gated bool
}

// endToEnd lists the metrics a caller of the Engine sees. The timing
// bounds are wider than the 10% the benchmark aims for: on the shared
// 2-vCPU VM they were set on, ten runs of one workload spread (IQR ÷
// median) by 0.1–0.2 while the host was steady, and by up to 0.4 when
// a slow stretch of the host covered some of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, gated: true},
	// Only the workloads that leave files behind restart.
	{name: "restart_s", unit: "s", bound: 0.24},
	{name: "query_p50_ms", unit: "ms", bound: 0.24, gated: true},
	// Tails are taken per sample and reported as the median over the
	// samples: a p99 pooled over the run spread by up to 0.25 across ten
	// seeded runs on a shared machine, as one slow stretch fills the
	// whole tail. p95 and p90, not p99: the run's samples then hold at
	// least ten requests beyond them.
	{name: "query_p95_ms", unit: "ms", bound: 0.24, gated: true},
	{name: "query_qps", unit: "1/s", higher: true, bound: 0.24, gated: true},
	// Only mutate-100k writes.
	{name: "apply_p50_ms", unit: "ms", bound: 0.24},
	{name: "apply_p90_ms", unit: "ms", bound: 0.24},
	{name: "apply_per_s", unit: "1/s", higher: true, bound: 0.24},
	// Answers are deterministic: the cloud is fixed and the seed only
	// reorders the same request multiset, so only the order of the sum
	// moves the last bits.
	{name: "mrr_mean", unit: "ratio", bound: 1e-9, gated: true},
	{name: "mem_peak_mb", unit: "MB", bound: 0.20, gated: true},
	// Always 0 on a healthy run, so they are checked here rather than
	// listed in BENCHMARK.json; any increase is a regression.
	{name: "fail_frac", unit: "ratio", abs: true},
	{name: "degraded_frac", unit: "ratio", abs: true},
}

// perLayer lists the traced per-layer metrics. The gated ones are
// measured on every workload; the rest exist only where the workload's
// path crosses the layer (only mutate-100k writes to a WAL, only
// indexed-100k builds a StoredList) and are reported in the tool's own
// output.
var perLayer = []metricDef{
	{name: "engine.overhead_us", unit: "us", gated: true},
	{name: "engine.shed", unit: "count"},
	{name: "engine.degraded", unit: "count"},
	{name: "engine.retries", unit: "count"},
	{name: "core.select_us", unit: "us", gated: true},
	{name: "core.candidates", unit: "count", gated: true},
	{name: "core.geogreedy_ms", unit: "ms", gated: true},
	{name: "core.geogreedy_self_ms", unit: "ms", gated: true},
	{name: "core.storedlist_build_ms", unit: "ms"},
	{name: "core.storedlist_len", unit: "count"},
	{name: "core.storedlist_query_us", unit: "us"},
	{name: "core.mrr_geometric_ms", unit: "ms", gated: true},
	{name: "dd.add_halfspace_us", unit: "us", gated: true},
	{name: "dd.adds_per_query", unit: "count", gated: true},
	{name: "dd.vertices_final", unit: "count", gated: true},
	{name: "skyline.kernel_ms", unit: "ms", gated: true},
	{name: "skyline.size", unit: "count", gated: true},
	{name: "happy.cert_ms", unit: "ms", gated: true},
	{name: "happy.size", unit: "count", gated: true},
	{name: "happy.keep_ratio", unit: "ratio", gated: true},
	{name: "skyline.epscover_ms", unit: "ms"},
	{name: "skyline.epscover_keep_ratio", unit: "ratio"},
	{name: "coreset.build_ms", unit: "ms"},
	{name: "coreset.size", unit: "count"},
	{name: "coreset.mrr", unit: "ratio"},
	{name: "skyline.update_insert_us", unit: "us"},
	{name: "skyline.update_delete_us", unit: "us"},
	{name: "happy.update_us", unit: "us"},
	{name: "dataset.insert_us", unit: "us"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.sync_ms", unit: "ms"},
	{name: "wal.bytes_per_mut", unit: "B"},
	{name: "persist.compact_ms", unit: "ms"},
	{name: "persist.write_amp", unit: "ratio"},
	{name: "persist.index_save_ms", unit: "ms"},
	{name: "persist.index_bytes", unit: "B"},
	{name: "persist.index_load_ms", unit: "ms"},
	{name: "persist.recover_ms", unit: "ms"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", gated: true},
	{name: "runtime.allocs_per_op", unit: "allocs/op", gated: true},
	{name: "runtime.gc_cycles_per_kop", unit: "cycles/kop", gated: true},
	{name: "runtime.gc_cpu_frac", unit: "ratio", gated: true},
	{name: "trace.coverage", unit: "ratio", higher: true, gated: true},
	{name: "trace.apply_coverage", unit: "ratio", higher: true},
	{name: "trace.qps_ratio", unit: "ratio", higher: true, gated: true},
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(values, n=4), so spreads
// printed here match the ones computed from the same runs elsewhere.
// With fewer than two values both quartiles are the single value.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// runtimeSample is a reading of the runtime/metrics the runtime layer
// reports, taken before and after a load phase.
type runtimeSample struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU, totalCPU              float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// runtimeLayer turns the runtime activity of ops requests into the
// runtime per-layer metrics.
func runtimeLayer(d runtimeSample, ops int, out map[string]float64) {
	if ops < 1 {
		return
	}
	out["runtime.alloc_bytes_per_op"] = float64(d.allocBytes) / float64(ops)
	out["runtime.allocs_per_op"] = float64(d.allocs) / float64(ops)
	out["runtime.gc_cycles_per_kop"] = float64(d.gcCycles) * 1000 / float64(ops)
	out["runtime.gc_cpu_frac"] = 0 // the runtime updates CPU estimates at GC only
	if d.totalCPU > 0 {
		out["runtime.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
