// Command kregret-bench measures the k-regret serving Engine end to
// end, on four workloads, and attributes the time to the layers below
// it. Each workload runs in its own child process (the same binary,
// re-executed), so heap, GC state and peak memory are per workload.
//
//	bash cmd/kregret-bench/run.sh -workload all -seed 20140331
//	bash cmd/kregret-bench/run.sh -workload live-100k -trace 1 -spans spans.jsonl
//	bash cmd/kregret-bench/run.sh -compare base1.json,base2.json new1.json,new2.json
//
// It prints one "workload metric value unit" line per metric and, as
// its last line, a JSON summary; it exits nonzero if a correctness
// check fails. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	// An interrupt or SIGTERM cancels ctx, which kills a running child
	// workload before the parent returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context) int {
	// -workload, -seed, -seconds and -trace are the flags BENCHMARK.json's
	// command is run with, -seconds set to its run_seconds.
	var (
		sel       = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed      = flag.Int64("seed", 20140331, "seed of the query order and the mutations")
		seconds   = flag.Int("seconds", 20, "run length: each workload's request counts are per second of it")
		trace     = flag.Int("trace", 0, "1: also run each workload traced and report the per-layer metrics")
		spans     = flag.String("spans", "", "with -trace 1, write every span to this file (JSON lines)")
		out       = flag.String("out", "", "write every result and the environment to this JSON file")
		compare   = flag.String("compare", "", "compare base result files (comma-separated) with the result files given as the argument")
		childName = flag.String("child", "", "internal: run one workload in this process and print its result")
	)
	flag.Parse()

	if *childName != "" {
		if err := runChild(ctx, *childName, *seed, *seconds, *trace == 1, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "kregret-bench:", err)
			return 1
		}
		return 0
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "kregret-bench: -compare needs the new result files as one comma-separated argument")
			return 2
		}
		regressed, err := runCompare(strings.Split(*compare, ","), strings.Split(flag.Arg(0), ","), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kregret-bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "kregret-bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	names, err := selectWorkloads(*sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kregret-bench:", err)
		return 2
	}
	ok, err := runParent(ctx, names, *seed, *seconds, *trace == 1, *spans, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kregret-bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func selectWorkloads(sel string) ([]string, error) {
	if sel == "all" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return names, nil
	}
	names := strings.Split(sel, ",")
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return names, nil
}

// runChild runs one workload in this process and prints its result as
// JSON on standard output.
func runChild(ctx context.Context, name string, seed int64, seconds int, traced bool, spans string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir, err := os.MkdirTemp("", "kregret-bench-*")
	if err != nil {
		return err
	}
	p := newPlan(w, seed, seconds)
	p.traced, p.dir, p.spans = traced, dir, spans
	res, err := run(ctx, p)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one workload in a child process and waits for it.
func spawn(ctx context.Context, name string, seed int64, seconds int, traced bool, spans string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tr, "-spans", spans)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload %s: reading its result: %w", name, err)
	}
	return &res, nil
}

// report is what -out writes and -compare reads.
type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func currentEnv(seed int64, seconds int) environment {
	e := environment{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", Seed: seed, Seconds: seconds}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "-dirty"
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// runParent runs every selected workload in its own child, untraced
// and then, with traced, traced; prints the metrics; and reports
// whether every correctness check passed.
func runParent(ctx context.Context, names []string, seed int64, seconds int, traced bool, spans, out string) (bool, error) {
	if traced && spans != "" {
		if err := os.WriteFile(spans, nil, 0o644); err != nil {
			return false, err
		}
	}
	rep := report{Env: currentEnv(seed, seconds)}
	line := summaryLine{Correct: true, Metrics: map[string]valueUnit{}}
	// Collected in memory and written once, so a write error surfaces.
	w := new(bytes.Buffer)
	for _, name := range names {
		res, err := spawn(ctx, name, seed, seconds, false, "")
		if err != nil {
			return false, err
		}
		rep.Results = append(rep.Results, res)
		printResult(w, res)
		var tres *result
		if traced {
			if tres, err = spawn(ctx, name, seed, seconds, true, spans); err != nil {
				return false, err
			}
			rep.Results = append(rep.Results, tres)
			mergeUntraced(tres, res)
			printLayers(w, tres)
		}
		for _, r := range []*result{res, tres} {
			if r != nil {
				line.Attempted += r.Attempted
				line.Failed += r.Failed
				line.Correct = line.Correct && r.correct()
			}
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		src, defs, values := res, endToEnd, res.Metrics
		if traced {
			src, defs, values = tres, perLayer, tres.Layers
		}
		for _, d := range defs {
			if !d.gated {
				continue
			}
			v, ok := values[d.name]
			if !ok {
				return false, fmt.Errorf("workload %s reported no %s", src.Workload, d.name)
			}
			line.Metrics[prefix+d.name] = valueUnit{v, d.unit}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", data)
	if _, err := os.Stdout.Write(w.Bytes()); err != nil {
		return false, err
	}
	return line.Correct, nil
}

// mergeUntraced gives a traced result the per-layer metrics only the
// untraced run measures cleanly — the runtime and engine counters,
// which replays would inflate — and the tracing overhead.
func mergeUntraced(tres, res *result) {
	for k, v := range res.Layers {
		tres.Layers[k] = v
	}
	if q := res.Metrics["query_qps"]; q > 0 {
		tres.Layers["trace.qps_ratio"] = tres.Metrics["query_qps"] / q
	}
}

func printResult(w *bytes.Buffer, r *result) {
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
	printChecks(w, r)
}

func printChecks(w *bytes.Buffer, r *result) {
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL " + c.Detail
		}
		fmt.Fprintf(w, "# check %s: %s: %s\n", r.Workload, c.Name, status)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "# FLAG %s: %s\n", r.Workload, f)
	}
}

func printLayers(w *bytes.Buffer, r *result) {
	for _, d := range perLayer {
		if v, ok := r.Layers[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
	fmt.Fprintf(w, "# span %s: name count median_self_ms p90_self_ms\n", r.Workload)
	for _, row := range r.Table {
		fmt.Fprintf(w, "# span %s: %s %d %.4f %.4f\n", r.Workload, row.Name, row.Count, row.MedianSelf, row.P90Self)
	}
	printChecks(w, r)
}
