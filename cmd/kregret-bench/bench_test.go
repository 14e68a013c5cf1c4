package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	kregret "repro"
	"repro/internal/dataset"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func betterWord(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in this package in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range b.EndToEnd {
		d := gated[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != betterWord(d) || d.abs || math.Abs(m.Bound-d.bound) > 1e-15 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	gated = nil
	for _, d := range perLayer {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(b.PerLayer) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(gated))
	}
	for i, m := range b.PerLayer {
		d := gated[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != betterWord(d) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %s %s %s", i, m, d.name, d.unit, betterWord(d))
		}
	}
}

// TestWorkloadsSmoke runs every workload in process at toy size,
// untraced and traced: all checks pass and every metric BENCHMARK.json
// lists is reported.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			p := plan{workload: w, seed: 20140331, queries: 120, rounds: 2}
			p.n = 2000
			if w.durable {
				p.writes = 20
			}
			res := runToy(ctx, t, p)
			var want []string
			for _, m := range b.EndToEnd {
				want = append(want, m.Name)
			}
			if w.indexed || w.durable {
				want = append(want, "restart_s")
			}
			if w.durable {
				want = append(want, "apply_p50_ms", "apply_p90_ms", "apply_per_s")
			}
			for _, name := range want {
				if v, ok := res.Metrics[name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s: got %v (reported %v), want a positive value", name, v, ok)
				}
			}
			for _, name := range []string{"fail_frac", "degraded_frac"} {
				if v, ok := res.Metrics[name]; !ok || v > 0 || math.IsNaN(v) {
					t.Errorf("%s: got %v (reported %v), want 0", name, v, ok)
				}
			}
			p.traced = true
			tres := runToy(ctx, t, p)
			mergeUntraced(tres, res)
			for _, m := range b.PerLayer {
				if v, ok := tres.Layers[m.Name]; !ok || math.IsNaN(v) {
					t.Errorf("per-layer %s: not reported", m.Name)
				}
			}
		})
	}
}

func runToy(ctx context.Context, t *testing.T, p plan) *result {
	t.Helper()
	p.dir = t.TempDir()
	res, err := run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("traced=%v: check %q failed: %s", p.traced, c.Name, c.Detail)
		}
	}
	return res
}

// TestCheckersRejectCorruptAnswers feeds every checker a correct input
// and a corrupted one.
func TestCheckersRejectCorruptAnswers(t *testing.T) {
	raw, err := dataset.AntiCorrelated(500, dim, 7)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]kregret.Point, len(raw))
	for i, v := range raw {
		pts[i] = kregret.Point(v)
	}
	ds, err := kregret.NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ds.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(a *kregret.Answer)) *kregret.Answer {
		c := *ans
		c.Indices = append([]int(nil), ans.Indices...)
		f(&c)
		return &c
	}
	badMRR := corrupt(func(a *kregret.Answer) { a.MRR = math.Nextafter(a.MRR, 1) })
	badIdx := corrupt(func(a *kregret.Answer) { a.Indices[len(a.Indices)-1]++ })

	if err := sameAnswer(ans, corrupt(func(*kregret.Answer) {})); err != nil {
		t.Errorf("sameAnswer rejected an identical answer: %v", err)
	}
	for _, bad := range []*kregret.Answer{badMRR, badIdx} {
		if sameAnswer(ans, bad) == nil {
			t.Errorf("sameAnswer accepted %+v", bad)
		}
	}

	refs := map[int]*kregret.Answer{10: ans}
	ks, answered := []int{10, 10}, []bool{true, true}
	if err := checkIdentical(ks, []uint64{fingerprint(ans), fingerprint(ans)}, answered, refs); err != nil {
		t.Errorf("checkIdentical rejected identical answers: %v", err)
	}
	if checkIdentical(ks, []uint64{fingerprint(ans), fingerprint(badIdx)}, answered, refs) == nil {
		t.Error("checkIdentical accepted a differing answer")
	}

	if err := checkExactMRR(ds, ans); err != nil {
		t.Errorf("checkExactMRR rejected the solver's answer: %v", err)
	}
	if checkExactMRR(ds, badMRR) == nil {
		t.Error("checkExactMRR accepted a wrong regret ratio")
	}

	if err := checkShardBound(ans.MRR+0.05, ans, 0.1); err != nil {
		t.Errorf("checkShardBound rejected a regret within eps: %v", err)
	}
	if checkShardBound(ans.MRR+0.2, ans, 0.1) == nil {
		t.Error("checkShardBound accepted a regret beyond eps")
	}

	same, err := kregret.NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameDataset(ds, same); err != nil {
		t.Errorf("checkSameDataset rejected equal datasets: %v", err)
	}
	moved := append([]kregret.Point(nil), pts...)
	moved[3] = append(kregret.Point(nil), pts[3]...)
	moved[3][1] *= 0.5
	other, err := kregret.NewDataset(moved)
	if err != nil {
		t.Fatal(err)
	}
	if checkSameDataset(ds, other) == nil {
		t.Error("checkSameDataset accepted datasets that differ in one coordinate")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.name] = d
	}
	p50, qps, fail := defs["query_p50_ms"], defs["query_qps"], defs["fail_frac"]
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	noFailures := []float64{0, 0, 0, 0, 0}
	for _, tc := range []struct {
		d          metricDef
		base, next []float64
		want       string
	}{
		{p50, base, []float64{10.02, 9.97, 10.1, 9.9, 10}, "within bound"},
		{p50, base, []float64{13, 13.1, 12.9, 13.05, 12.95}, "regressed"},
		{p50, base, []float64{8, 8.1, 7.9, 8.05, 7.95}, "improved"},
		{p50, base, []float64{5, 15, 10, 2, 18}, "unresolved"},
		// Too noisy to resolve, but the median is worse beyond the bound.
		{p50, base, []float64{5, 15, 14, 2, 18}, "regressed"},
		{qps, base, []float64{13, 13.1, 12.9, 13.05, 12.95}, "improved"},
		{qps, base, []float64{7, 7.1, 6.9, 7.05, 6.95}, "regressed"},
		{fail, noFailures, noFailures, "within bound"},
		// Failures in only some runs: the median is still 0.
		{fail, noFailures, []float64{0, 0, 0.01, 0, 0.02}, "regressed"},
		// No new run fails more than the worst base run.
		{fail, []float64{0, 0.02, 0, 0, 0}, []float64{0, 0.01, 0, 0, 0}, "unresolved"},
	} {
		if got := verdict(tc.d, tc.base, tc.next); got != tc.want {
			t.Errorf("%s %v → %v: verdict %q, want %q", tc.d.name, tc.base, tc.next, got, tc.want)
		}
	}
	var sb strings.Builder
	dir := t.TempDir()
	write := func(name string, v float64) string {
		rep := report{Results: []*result{{Workload: "w", Metrics: map[string]float64{"query_p50_ms": v}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	regressed, err := runCompare([]string{write("b1", 10), write("b2", 10.1)}, []string{write("n1", 20), write("n2", 20.2)}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(sb.String(), "regressed") {
		t.Errorf("runCompare missed a doubled latency:\n%s", sb.String())
	}
}
