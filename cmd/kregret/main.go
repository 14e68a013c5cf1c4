// Command kregret answers k-regret queries over CSV data from the
// command line.
//
// Usage:
//
//	kregret -k 10 -in cars.csv                  # GeoGreedy over happy points
//	kregret -k 10 -in cars.csv -algo greedy     # the LP baseline
//	kregret -k 10 -in cars.csv -cand skyline    # prior work's candidates
//	kregret -in cars.csv -stats                 # candidate-set statistics
//	kregret -k 10 -in cars.csv -timeout 30s     # bound the query wall-clock
//	kregret -k 10 -in cars.csv -save-index i.snap   # persist the StoredList
//	kregret -k 10 -in cars.csv -load-index i.snap   # serve from the snapshot
//	kregret -k 10 -in cars.csv -concurrency 4       # serve through the engine
//	kregret -k 10 -in cars.csv -concurrency 4 \
//	    -watchdog 50ms                              # + stuck-query watchdog
//	kregret -k 10 -in cars.csv -wal cars.wal        # durable mutable dataset
//	kregret -k 10 -in cars.csv -wal cars.wal \
//	    -insert 0.62,0.48 -compact                  # durable insert, then compact
//
// The -wal flag makes the dataset durably mutable: the first run
// builds it from the CSV, writes a base snapshot next to the log
// (override with -wal-snap), and appends every -insert/-delete to the
// write-ahead log before applying it. Later runs find the snapshot
// and recover the full mutation history from the (snapshot, log) pair
// — the CSV is then only a fallback for a missing pair, never
// reloaded over live history. A run killed at any byte of a log write
// recovers exactly the acknowledged mutations. -compact folds the log
// into a fresh snapshot when it grows.
//
// The -save-index/-load-index/-concurrency flags route the query
// through kregret.Engine: admission control, per-query budgets,
// circuit breaking, and crash-safe snapshot files (a corrupt or
// mismatched snapshot is rebuilt, not fatal). -watchdog flags a query
// still running the given interval past its deadline and quarantines
// its algorithm's breaker. Engine counters are
// reported on exit, among them the degradation chain's perturbed
// re-runs after a numerical failure ("retries") and how many of them
// answered ("rescued").
//
// Input: one tuple per CSV record, numeric fields only, optional
// header row; every attribute is treated as larger-is-better (negate
// columns where smaller is better before loading). Output: the
// selected row indices (0-based, header excluded), their values and
// the answer's maximum regret ratio.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	kregret "repro"
	"repro/internal/dataset"
)

// runConfig carries the parsed flags.
type runConfig struct {
	in          string
	k           int
	algo, cand  string
	stats       bool
	timeout     time.Duration
	concurrency int
	saveIndex   string
	loadIndex   string
	watchdog    time.Duration
	wal         string
	walSnap     string
	insert      string
	del         int
	compact     bool
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.in, "in", "", "input CSV file (required)")
	flag.IntVar(&cfg.k, "k", 10, "maximum number of tuples to return")
	flag.StringVar(&cfg.algo, "algo", "geogreedy", "algorithm: geogreedy or greedy")
	flag.StringVar(&cfg.cand, "cand", "happy", "candidate set: happy, skyline or all")
	flag.BoolVar(&cfg.stats, "stats", false, "print candidate-set statistics instead of answering a query")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the query after this long (e.g. 30s; 0 = no limit)")
	flag.IntVar(&cfg.concurrency, "concurrency", 0, "serve through the engine with this many workers (0 = direct query)")
	flag.StringVar(&cfg.saveIndex, "save-index", "", "build the StoredList index and save it to this file (atomic write)")
	flag.StringVar(&cfg.loadIndex, "load-index", "", "serve from this index snapshot (rebuilt if missing or corrupt)")
	flag.DurationVar(&cfg.watchdog, "watchdog", 0, "engine mode: flag a query still running this long past its deadline as stuck (0 = no watchdog)")
	flag.StringVar(&cfg.wal, "wal", "", "write-ahead log path: makes the dataset durably mutable (recovered from <wal>+snapshot when they exist)")
	flag.StringVar(&cfg.walSnap, "wal-snap", "", "base snapshot path for -wal (default <wal>.snap)")
	flag.StringVar(&cfg.insert, "insert", "", "durably insert this point (comma-separated normalized coordinates; requires -wal)")
	flag.IntVar(&cfg.del, "delete", -1, "durably delete the tuple at this index (requires -wal)")
	flag.BoolVar(&cfg.compact, "compact", false, "fold the WAL into a fresh base snapshot after applying mutations (requires -wal)")
	flag.Parse()
	if cfg.in == "" {
		fmt.Fprintln(os.Stderr, "kregret: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "kregret: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	ds, err := openDataset(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ds.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "kregret: closing WAL: %v\n", cerr)
		}
	}()
	if err := applyMutations(cfg, ds); err != nil {
		return err
	}

	if cfg.stats {
		sky, err := ds.Skyline()
		if err != nil {
			return err
		}
		hp, err := ds.HappyPoints()
		if err != nil {
			return err
		}
		conv, err := ds.ConvexPoints()
		if err != nil {
			return err
		}
		fmt.Printf("tuples:         %d\n", ds.Len())
		fmt.Printf("attributes:     %d\n", ds.Dim())
		fmt.Printf("skyline points: %d\n", len(sky))
		fmt.Printf("happy points:   %d\n", len(hp))
		fmt.Printf("hull points:    %d\n", len(conv))
		return nil
	}

	var opts []kregret.Option
	switch cfg.algo {
	case "geogreedy":
		opts = append(opts, kregret.WithAlgorithm(kregret.AlgoGeoGreedy))
	case "greedy":
		opts = append(opts, kregret.WithAlgorithm(kregret.AlgoGreedy))
	default:
		return fmt.Errorf("unknown algorithm %q", cfg.algo)
	}
	switch cfg.cand {
	case "happy":
		opts = append(opts, kregret.WithCandidates(kregret.CandidatesHappy))
	case "skyline":
		opts = append(opts, kregret.WithCandidates(kregret.CandidatesSkyline))
	case "all":
		opts = append(opts, kregret.WithCandidates(kregret.CandidatesAll))
	default:
		return fmt.Errorf("unknown candidate set %q", cfg.cand)
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	var ans *kregret.Answer
	if cfg.concurrency > 0 || cfg.saveIndex != "" || cfg.loadIndex != "" {
		ans, err = runEngine(ctx, cfg, ds, opts)
	} else {
		ans, err = ds.QueryContext(ctx, cfg.k, opts...)
	}
	if err != nil {
		return err
	}
	return printAnswer(ds, ans)
}

// openDataset builds the dataset the run serves from. Without -wal
// that is a plain in-memory load of the CSV. With -wal, an existing
// (snapshot, log) pair wins: it carries durable history the CSV knows
// nothing about, so the CSV is only consulted when the pair does not
// exist yet (the first run, which also writes the base snapshot).
func openDataset(cfg runConfig) (*kregret.Dataset, error) {
	if cfg.wal == "" {
		if cfg.insert != "" || cfg.del >= 0 || cfg.compact {
			return nil, fmt.Errorf("-insert/-delete/-compact require -wal")
		}
		return loadCSVDataset(cfg)
	}
	walSnap := cfg.walSnap
	if walSnap == "" {
		walSnap = cfg.wal + ".snap"
	}
	if _, err := os.Stat(walSnap); err == nil {
		ds, err := kregret.Recover(walSnap, cfg.wal)
		if err != nil {
			return nil, fmt.Errorf("recovering durable dataset: %w", err)
		}
		fmt.Printf("wal: recovered %d tuples at seq %d from %s\n", ds.Len(), ds.Seq(), walSnap)
		return ds, nil
	}
	ds, err := loadCSVDataset(cfg, kregret.WithWAL(cfg.wal, walSnap))
	if err != nil {
		return nil, err
	}
	fmt.Printf("wal: new durable dataset, base snapshot %s\n", walSnap)
	return ds, nil
}

func loadCSVDataset(cfg runConfig, opts ...kregret.Option) (*kregret.Dataset, error) {
	raw, err := dataset.ReadCSVFile(cfg.in)
	if err != nil {
		return nil, err
	}
	points := make([]kregret.Point, len(raw))
	for i, p := range raw {
		points[i] = kregret.Point(p)
	}
	return kregret.NewDataset(points, opts...)
}

// applyMutations performs the -insert/-delete/-compact flags in that
// order, each one durably logged before it is acknowledged.
func applyMutations(cfg runConfig, ds *kregret.Dataset) error {
	if cfg.insert == "" && cfg.del < 0 && !cfg.compact {
		return nil
	}
	if cfg.insert != "" {
		pt, err := parsePoint(cfg.insert)
		if err != nil {
			return fmt.Errorf("-insert: %w", err)
		}
		idx, err := ds.Insert(pt)
		if err != nil {
			return err
		}
		fmt.Printf("wal: inserted row %d at seq %d\n", idx, ds.Seq())
	}
	if cfg.del >= 0 {
		if err := ds.Delete(cfg.del); err != nil {
			return err
		}
		fmt.Printf("wal: deleted row %d at seq %d\n", cfg.del, ds.Seq())
	}
	if cfg.compact {
		if err := ds.Compact(); err != nil {
			return err
		}
		fmt.Printf("wal: compacted log into base snapshot at seq %d\n", ds.Seq())
	}
	return nil
}

// parsePoint parses "-insert 0.62,0.48" into a Point. Coordinates are
// taken verbatim in the dataset's normalized space, as Insert
// documents.
func parsePoint(s string) (kregret.Point, error) {
	fields := strings.Split(s, ",")
	pt := make(kregret.Point, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("coordinate %d: %w", i, err)
		}
		pt[i] = v
	}
	return pt, nil
}

// runEngine answers the query through the serving engine, handling
// the snapshot flags and reporting the engine counters on exit.
func runEngine(ctx context.Context, cfg runConfig, ds *kregret.Dataset, opts []kregret.Option) (*kregret.Answer, error) {
	engOpts := []kregret.EngineOption{kregret.WithWorkers(cfg.concurrency)}
	// -load-index serves from (and repairs) an existing snapshot;
	// -save-index alone builds one at the target path. Either way the
	// engine owns the snapshot lifecycle, atomically.
	snapshot := cfg.loadIndex
	if snapshot == "" {
		snapshot = cfg.saveIndex
	}
	if snapshot != "" {
		engOpts = append(engOpts, kregret.WithSnapshot(snapshot))
	}
	if cfg.watchdog > 0 {
		engOpts = append(engOpts, kregret.WithWatchdog(cfg.watchdog))
	}
	eng, err := kregret.NewEngine(ds, engOpts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "kregret: engine shutdown: %v\n", err)
		}
		printEngineStats(eng.Stats())
	}()
	if cfg.saveIndex != "" && cfg.saveIndex != snapshot {
		// Loaded from one path, saving to another.
		if err := eng.Index().SaveFile(cfg.saveIndex, ds); err != nil {
			return nil, err
		}
	}
	return eng.Query(ctx, cfg.k, opts...)
}

func printEngineStats(s kregret.EngineStats) {
	fmt.Printf("engine: admitted=%d completed=%d shed=%d (overload=%d, deadline=%d) canceled=%d degraded=%d breaker-short-circuits=%d\n",
		s.Admitted, s.Completed, s.ShedOverload+s.ShedDeadline, s.ShedOverload, s.ShedDeadline,
		s.Canceled, s.Degraded, s.BreakerShortCircuits)
	if s.Retries > 0 || s.WatchdogStuck > 0 {
		fmt.Printf("engine: retries=%d (rescued=%d) watchdog-stuck=%d\n",
			s.Retries, s.RetrySuccesses, s.WatchdogStuck)
	}
	if s.DrainDuration > 0 {
		fmt.Printf("engine: drain took %v\n", s.DrainDuration)
	}
	if s.SnapshotRebuilt {
		fmt.Println("engine: index snapshot was missing, corrupt or mismatched and has been rebuilt")
	}
}

func printAnswer(ds *kregret.Dataset, ans *kregret.Answer) error {
	fmt.Printf("selected %d of %d tuples, maximum regret ratio %.4f\n",
		len(ans.Indices), ds.Len(), ans.MRR)
	if ans.Degraded {
		fmt.Printf("note: answer is degraded (%s answered after a numerical failure: %s)\n",
			ans.Algorithm, ans.FallbackReason)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "row\tnormalized values")
	for _, idx := range ans.Indices {
		fmt.Fprintf(w, "%d\t%v\n", idx, ds.Point(idx))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if ans.MRR > 0 {
		weights, witness, err := ds.WorstUtility(ans.Indices)
		if err == nil && witness >= 0 {
			fmt.Printf("worst-case utility weights: %v (a user with these weights would prefer row %d)\n",
				weights, witness)
		}
	}
	return nil
}
