package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// runCompare compares the untraced end-to-end metrics of two sets of
// result files (written by -out), run i of one set paired with run i
// of the other, and prints per workload and metric each side's median
// and quartiles and a verdict (choosing-metrics guide, §6 and §8):
//
//   - regressed: the new median is worse than the base median by more
//     than the bound, or, for a metric with a bound of 0 (any increase
//     is a regression), some new run is worse than every base run;
//   - unresolved: otherwise, if either side's spread (IQR ÷ base
//     median) is wider than the bound, unless every new run beats
//     every base run;
//   - improved: the new run wins at least nine tenths of the pairs and
//     the medians differ by more than the base runs' IQR;
//   - within bound: none of the above.
//
// It reports whether any metric regressed.
func runCompare(baseFiles, newFiles []string, w io.Writer) (bool, error) {
	base, err := loadValues(baseFiles)
	if err != nil {
		return false, err
	}
	next, err := loadValues(newFiles)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range base {
		if _, ok := next[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("the two sets share no workload")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tbound\tverdict")
	regressed := false
	for _, name := range names {
		for _, d := range endToEnd {
			b, n := base[name][d.name], next[name][d.name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(d, b, n)
			regressed = regressed || v == "regressed"
			bq1, bq3 := quartiles(b)
			nq1, nq3 := quartiles(n)
			bound := fmt.Sprintf("%.3g%%", d.bound*100)
			if d.abs {
				bound = fmt.Sprintf("%g abs", d.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%s\t%s\n", name, d.name,
				median(b), bq1, bq3, median(n), nq1, nq3, change(d, b, n), bound, v)
		}
	}
	return regressed, tw.Flush()
}

// loadValues reads result files into workload → metric → one value
// per file, in file order.
func loadValues(files []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rep.Results {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], v)
			}
		}
	}
	return out, nil
}

// worsening is how much the new median is worse than the base median:
// absolute for abs metrics, otherwise a share of the base median.
func worsening(d metricDef, base, next []float64) float64 {
	diff := median(next) - median(base)
	if d.higher {
		diff = -diff
	}
	return scaled(d, diff, base)
}

// scaled expresses an absolute difference the way the bound is given.
func scaled(d metricDef, diff float64, base []float64) float64 {
	if d.abs {
		return diff
	}
	if m := math.Abs(median(base)); m > 0 {
		return diff / m
	}
	return math.Inf(1)
}

func change(d metricDef, base, next []float64) string {
	c := median(next) - median(base)
	if d.abs {
		return fmt.Sprintf("%+.3g", c)
	}
	return fmt.Sprintf("%+.2f%%", scaled(d, c, base)*100)
}

func better(d metricDef, a, b float64) bool {
	if d.higher {
		return a > b
	}
	return a < b
}

func verdict(d metricDef, base, next []float64) string {
	bq1, bq3 := quartiles(base)
	nq1, nq3 := quartiles(next)
	spread := math.Max(scaled(d, bq3-bq1, base), scaled(d, nq3-nq1, base))
	// allBetter: every new run beats every base run; anyWorse: some new
	// run is beaten by every base run.
	allBetter, anyWorse := true, false
	for _, n := range next {
		worse := true
		for _, b := range base {
			allBetter = allBetter && better(d, n, b)
			worse = worse && better(d, b, n)
		}
		anyWorse = anyWorse || worse
	}
	pairs, wins := len(base), 0
	if len(next) < pairs {
		pairs = len(next)
	}
	for i := 0; i < pairs; i++ {
		if better(d, next[i], base[i]) {
			wins++
		}
	}
	gain := -worsening(d, base, next)
	switch {
	case -gain > d.bound, !(d.bound > 0) && anyWorse:
		return "regressed"
	case spread > d.bound && !allBetter:
		return "unresolved"
	case pairs > 0 && wins*10 >= pairs*9 && gain > scaled(d, bq3-bq1, base):
		return "improved"
	}
	return "within bound"
}
