// Command benchbaseline records a performance baseline for the
// parallel geometric core: it runs the BenchmarkPaper suite at
// parallelism 1 (the exact sequential path) and at the requested
// width — alternating the two so host drift cancels out of the
// speedup ratio — parses the `go test -bench` output, and writes a
// BENCH_<rev>.json with each row's median ns/op and its IQR, B/op,
// allocs/op and the per-benchmark speedup. Each pass sets both the
// suite's -kregret.parallelism flag and go test's -cpu to its width:
// the entries that build a Dataset
// or Engine run at GOMAXPROCS. CI and `make bench` both go through
// this binary so every revision's numbers land in the same
// machine-readable shape.
//
// Usage:
//
//	go run ./cmd/benchbaseline [-parallelism N] [-n 100000] \
//	    [-benchtime 300ms] [-bench Paper] [-count 5] \
//	    [-out BENCH_<rev>.json] [-diff latest|path]
//
// The -n flag feeds the suite's -kregret.benchn dataset size; smoke
// runs (make bench-smoke) lower it, and pass -benchtime 1x, so the
// suite finishes in seconds and merely proves the harness end to end.
//
// -benchtime defaults to a duration, so a row that takes microseconds
// runs thousands of iterations and its ns/op is the steady state. At
// 2 iterations such a row times mostly its first call: the
// list-served Paper/EngineQuery read 15.7 µs where its steady state
// was 1.8 µs.
//
// -count repeats the alternating pass pairs; each pass is one sample
// of every row at each width. A row records the median of its
// samples for ns/op, B/op and allocs/op, the interquartile range of
// its ns/op samples and the samples themselves; the speedup is the
// ratio of the two widths' medians. The minimum of a few 2-iteration
// samples cannot resolve a 20% move on a shared machine (one row read
// 32.5 ms and then 44.7 ms with no change to its code), so a baseline
// takes at least five, and a row's IQR says which moves its median
// can resolve.
//
// -diff compares the freshly-recorded report against an earlier
// BENCH_*.json ("latest" picks the one recorded at the nearest
// ancestor: the report, other than the file just written, whose
// revision comes first in `git rev-list HEAD`, whenever it was
// written) and prints per-benchmark
// sequential ns/op and allocs/op deltas of the medians (a report
// written before medians were recorded holds its minima there). When
// the baseline was taken with the same -n and -benchtime, a
// sequential ns/op regression above 10% or an allocs/op growth above
// 25% on any benchmark exits nonzero so CI can gate on both time and
// allocation behavior; for
// benchmarks whose name contains "Sharded" the parallel ns/op is
// gated at 10% as well (the partition–merge path exists to win at
// width, so its parallel time is the one that must not rot). With
// mismatched parameters the diff is advisory and the gates are
// skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// measurement is one row at one width: the medians over its samples,
// the IQR of its ns/op samples, and those samples in pass order.
type measurement struct {
	NsPerOp     float64   `json:"ns_per_op"`
	NsIQR       float64   `json:"ns_per_op_iqr"`
	NsSamples   []float64 `json:"ns_per_op_samples,omitempty"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
}

type entry struct {
	Name string      `json:"name"`
	Seq  measurement `json:"sequential"`
	Par  measurement `json:"parallel"`
	// Speedup is the seq median ns/op over the par median ns/op (>1
	// means the fan-out won).
	Speedup float64 `json:"speedup"`
	// AllocRatio is par allocs/op over seq allocs/op (the scratch
	// pools should keep this near 1).
	AllocRatio float64 `json:"alloc_ratio"`
}

type report struct {
	Revision    string  `json:"revision"`
	Date        string  `json:"date"`
	GoVersion   string  `json:"go_version"`
	CPU         string  `json:"cpu"`
	MaxProcs    int     `json:"gomaxprocs"`
	N           int     `json:"n"`
	Parallelism int     `json:"parallelism"`
	Benchtime   string  `json:"benchtime"`
	Samples     int     `json:"samples"`
	Benchmarks  []entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result row, e.g.
// BenchmarkPaper/GeoGreedy-8  2  512345678 ns/op  123456 B/op  789 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	var (
		parallelism = flag.Int("parallelism", runtime.GOMAXPROCS(0),
			"worker count for the parallel pass (the sequential pass is always 1)")
		n         = flag.Int("n", 100000, "BenchmarkPaper dataset size")
		benchtime = flag.String("benchtime", "300ms", "go test -benchtime value: a duration per row, or Nx iterations")
		bench     = flag.String("bench", "Paper", "go test -bench regexp")
		count     = flag.Int("count", 5, "passes per width, each one sample of every row; the median and IQR are kept")
		out       = flag.String("out", "", "output path (default BENCH_<rev>.json)")
		diff      = flag.String("diff", "", "compare against a BENCH_*.json (\"latest\" = the nearest ancestor revision's)")
	)
	flag.Parse()
	if *parallelism < 2 {
		// A 1-vs-1 diff is meaningless; still record it, but say so.
		fmt.Fprintf(os.Stderr, "benchbaseline: parallel pass width %d — speedups will be ~1 on this machine\n",
			*parallelism)
	}

	if *count < 1 {
		fatal(fmt.Errorf("-count must be at least 1, got %d", *count))
	}
	if *count < 5 {
		fmt.Fprintf(os.Stderr, "benchbaseline: %d samples per row — too few to resolve a 20%% move\n", *count)
	}

	rev := gitRev()
	seq, par, cpu, err := runInterleaved(1, *parallelism, *n, *count, *benchtime, *bench)
	if err != nil {
		fatal(err)
	}

	rep := report{
		Revision:    rev,
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPU:         cpu,
		MaxProcs:    runtime.GOMAXPROCS(0),
		N:           *n,
		Parallelism: *parallelism,
		Benchtime:   *benchtime,
		Samples:     *count,
	}
	for _, name := range sortedKeys(seq) {
		s := seq[name]
		p, ok := par[name]
		if !ok {
			continue
		}
		e := entry{Name: name, Seq: s, Par: p}
		if p.NsPerOp > 0 {
			e.Speedup = s.NsPerOp / p.NsPerOp
		}
		if s.AllocsPerOp > 0 {
			e.AllocRatio = float64(p.AllocsPerOp) / float64(s.AllocsPerOp)
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmarks matched -bench=%s in both passes", *bench))
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rev + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("wrote %s (rev %s, n=%d, parallelism 1 vs %d, %d samples)\n", path, rev, *n, *parallelism, *count)
	fmt.Printf("%-40s %14s %8s %14s %8s %8s %7s\n", "benchmark", "seq ns/op", "IQR", "par ns/op", "IQR", "speedup", "allocΔ")
	for _, e := range rep.Benchmarks {
		fmt.Printf("%-40s %14.0f %7.1f%% %14.0f %7.1f%% %7.2fx %6.2fx\n",
			e.Name, e.Seq.NsPerOp, 100*relIQR(e.Seq), e.Par.NsPerOp, 100*relIQR(e.Par), e.Speedup, e.AllocRatio)
	}

	if *diff != "" {
		basePath := *diff
		if basePath == "latest" {
			basePath, err = ancestorBaseline(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchbaseline: no baseline to diff against: %v\n", err)
				return
			}
		}
		base, err := readReport(basePath)
		if err != nil {
			fatal(err)
		}
		if regressed := diffReports(rep, base, basePath); regressed {
			os.Exit(1)
		}
	}
}

// ancestorBaseline picks the BENCH_*.json in the working directory
// recorded at the nearest ancestor of HEAD, skipping the report just
// written.
func ancestorBaseline(exclude string) (string, error) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	reports := map[string]report{}
	for _, m := range matches {
		if filepath.Clean(m) == filepath.Clean(exclude) {
			continue
		}
		r, err := readReport(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchbaseline: skipping %s: %v\n", m, err)
			continue
		}
		reports[m] = r
	}
	out, err := exec.Command("git", "rev-list", "HEAD").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-list HEAD: %w", err)
	}
	best, ok := nearestAncestor(reports, strings.Fields(string(out)))
	if !ok {
		return "", fmt.Errorf("no other BENCH_*.json records an ancestor of HEAD")
	}
	return best, nil
}

// nearestAncestor returns the path of the report whose revision (an
// abbreviated hash) comes first in history, the full hashes newest
// first as `git rev-list HEAD` prints them. Recorded dates play no
// part, so re-recording an older revision cannot make it the base.
// Reports whose revision is not in history are ignored; ties between
// reports of one revision go to the smallest path.
func nearestAncestor(reports map[string]report, history []string) (string, bool) {
	paths := sortedKeys(reports)
	for _, commit := range history {
		for _, p := range paths {
			if rev := reports[p].Revision; rev != "" && strings.HasPrefix(commit, rev) {
				return p, true
			}
		}
	}
	return "", false
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

// regressionThreshold is the sequential ns/op increase (relative to
// the baseline) above which the diff exits nonzero.
const regressionThreshold = 0.10

// allocRegressionThreshold is the sequential allocs/op increase above
// which the diff exits nonzero. Allocation counts do not depend on the
// host, and no production path draws from a sync.Pool, so they barely
// move between runs: across ten-run batches of every row, allocs/op
// varied by at most 8 on a row (Table3/household, 0.04%). The gate
// sits far above that jitter and far below the ns/op one.
const allocRegressionThreshold = 0.05

// diffReports prints the per-benchmark delta table and reports
// whether any benchmark regressed past the ns/op or allocs/op
// threshold under comparable parameters.
func diffReports(cur, base report, basePath string) bool {
	comparable := cur.N == base.N && cur.Benchtime == base.Benchtime
	fmt.Printf("\ndiff vs %s (rev %s)\n", basePath, base.Revision)
	if !comparable {
		fmt.Printf("  parameters differ (n=%d benchtime=%s vs n=%d benchtime=%s): advisory only, regression gate skipped\n",
			cur.N, cur.Benchtime, base.N, base.Benchtime)
	}
	baseBy := make(map[string]entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	fmt.Printf("%-40s %14s %14s %8s %8s\n", "benchmark", "base ns/op", "new ns/op", "Δns/op", "Δallocs")
	regressed, allocRegressed, parRegressed := false, false, false
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		seen[e.Name] = true
		b, ok := baseBy[e.Name]
		if !ok {
			fmt.Printf("%-40s %14s %14.0f %8s %8s\n", e.Name, "(new)", e.Seq.NsPerOp, "", "")
			continue
		}
		nsDelta := ratioDelta(e.Seq.NsPerOp, b.Seq.NsPerOp)
		allocDelta := ratioDelta(float64(e.Seq.AllocsPerOp), float64(b.Seq.AllocsPerOp))
		mark := ""
		if comparable && nsDelta > regressionThreshold {
			mark = "  << regression"
			regressed = true
		}
		if comparable && allocDelta > allocRegressionThreshold {
			mark += "  << alloc regression"
			allocRegressed = true
		}
		// Sharded entries exist to beat their unsharded counterpart at
		// width, so their PARALLEL ns/op is the number that must not
		// rot; the other entries' parallel times stay advisory (they
		// are pure noise at width 1).
		if comparable && strings.Contains(e.Name, "Sharded") {
			if parDelta := ratioDelta(e.Par.NsPerOp, b.Par.NsPerOp); parDelta > regressionThreshold {
				mark += fmt.Sprintf("  << parallel regression (%+.1f%%)", 100*parDelta)
				parRegressed = true
			}
		}
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%% %+7.1f%%%s\n",
			e.Name, b.Seq.NsPerOp, e.Seq.NsPerOp, 100*nsDelta, 100*allocDelta, mark)
	}
	for _, e := range base.Benchmarks {
		if !seen[e.Name] {
			fmt.Printf("%-40s %14.0f %14s\n", e.Name, e.Seq.NsPerOp, "(gone)")
		}
	}
	if regressed {
		fmt.Printf("sequential ns/op regressed more than %.0f%% against %s\n", 100*regressionThreshold, basePath)
	}
	if allocRegressed {
		fmt.Printf("sequential allocs/op regressed more than %.0f%% against %s\n", 100*allocRegressionThreshold, basePath)
	}
	if parRegressed {
		fmt.Printf("sharded parallel ns/op regressed more than %.0f%% against %s\n", 100*regressionThreshold, basePath)
	}
	return regressed || allocRegressed || parRegressed
}

// ratioDelta is (new-old)/old, with a zero baseline treated as no
// delta (B/op-less rows and zero-alloc benchmarks).
func ratioDelta(cur, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cur - base) / base
}

// runInterleaved alternates sequential and parallel passes —
// 1, N, 1, N, … for `count` rounds — and summarizes each side's
// samples per benchmark. Interleaving matters on shared machines:
// host throughput drifts over the minutes a full run takes, and
// running all sequential passes first would hand whichever width runs
// last a systematic handicap. Alternating exposes both widths to the
// same drift so it cancels out of the speedup ratio. Benchmarks must
// appear in every pass to be reported.
func runInterleaved(seqWorkers, parWorkers, n, count int, benchtime, bench string) (seq, par map[string]measurement, cpu string, err error) {
	seqSamples, parSamples := map[string][]measurement{}, map[string][]measurement{}
	for pass := 0; pass < count; pass++ {
		for _, side := range []struct {
			workers int
			samples map[string][]measurement
		}{{seqWorkers, seqSamples}, {parWorkers, parSamples}} {
			res, c, err := runPass(side.workers, n, benchtime, bench)
			if err != nil {
				return nil, nil, "", err
			}
			if c != "" {
				cpu = c
			}
			for name, m := range res {
				side.samples[name] = append(side.samples[name], m)
			}
		}
	}
	return summarize(seqSamples, count), summarize(parSamples, count), cpu, nil
}

// summarize reduces each benchmark's samples to their medians and the
// IQR of ns/op, dropping benchmarks missing from some pass.
func summarize(samples map[string][]measurement, count int) map[string]measurement {
	out := make(map[string]measurement, len(samples))
	for name, ms := range samples {
		if len(ms) != count {
			continue
		}
		ns, bytes, allocs := make([]float64, len(ms)), make([]float64, len(ms)), make([]float64, len(ms))
		for i, m := range ms {
			ns[i], bytes[i], allocs[i] = m.NsPerOp, float64(m.BytesPerOp), float64(m.AllocsPerOp)
		}
		q1, q3 := quartiles(ns)
		out[name] = measurement{
			NsPerOp:     median(ns),
			NsIQR:       q3 - q1,
			NsSamples:   ns,
			BytesPerOp:  int64(math.Round(median(bytes))),
			AllocsPerOp: int64(math.Round(median(allocs))),
		}
	}
	return out
}

// relIQR is a measurement's ns/op IQR relative to its median.
func relIQR(m measurement) float64 {
	if m.NsPerOp <= 0 {
		return 0
	}
	return m.NsIQR / m.NsPerOp
}

// median of values (not modified).
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4),
// the rule cmd/kregret-bench's -compare applies to its runs. With
// fewer than two values both quartiles are the single value.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// runPass executes one `go test -bench` invocation at the given
// worker width (as both the suite flag and GOMAXPROCS) and returns the
// parsed measurements keyed by benchmark name (the -cpu suffix
// stripped), plus the reported cpu model.
func runPass(workers, n int, benchtime, bench string) (map[string]measurement, string, error) {
	args := []string{
		"test", "-run=^$", "-bench=" + bench, "-benchmem", "-count=1",
		"-benchtime=" + benchtime, "-timeout=60m", fmt.Sprintf("-cpu=%d", workers), ".",
		"-args",
		fmt.Sprintf("-kregret.parallelism=%d", workers),
		fmt.Sprintf("-kregret.benchn=%d", n),
	}
	fmt.Fprintf(os.Stderr, "benchbaseline: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("pass at parallelism %d: %w\n%s", workers, err, outBytes)
	}
	res := make(map[string]measurement)
	cpu := ""
	for _, line := range strings.Split(string(outBytes), "\n") {
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var mem measurement
		mem.NsPerOp = ns
		if m[3] != "" {
			mem.BytesPerOp, _ = strconv.ParseInt(m[3], 10, 64)
			mem.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		res[strings.TrimPrefix(m[1], "Benchmark")] = mem
	}
	if len(res) == 0 {
		return nil, "", fmt.Errorf("pass at parallelism %d produced no benchmark lines:\n%s", workers, outBytes)
	}
	return res, cpu, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchbaseline:", err)
	os.Exit(1)
}
