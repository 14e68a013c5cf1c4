package kregret

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// spherePoints places n points on the positive unit sphere. Every
// point is then a convex-hull extreme point, so GeoGreedy does the
// maximum amount of dual-hull work — at d=7 a full query takes
// several seconds, which is what the cancellation tests need.
func spherePoints(n, d int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		var norm float64
		for j := range p {
			p[j] = 0.05 + math.Abs(rng.NormFloat64())
			norm += p[j] * p[j]
		}
		norm = math.Sqrt(norm)
		for j := range p {
			p[j] /= norm
		}
		pts[i] = p
	}
	return pts
}

func TestQueryContextAlreadyCanceled(t *testing.T) {
	ds, err := NewDataset(spherePoints(2000, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	ans, err := ds.QueryContext(ctx, 80, WithCandidates(CandidatesAll))
	elapsed := time.Since(start)
	if ans != nil {
		t.Fatalf("canceled query returned an answer: %+v", ans)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The same query runs for seconds; a pre-canceled context must
	// return before any geometry work starts.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("pre-canceled query took %v", elapsed)
	}
}

func TestQueryContextDeadlineMidRun(t *testing.T) {
	// ~4–5s of GeoGreedy work on this machine class; the 100ms
	// deadline therefore always expires mid-run, and the cooperative
	// checks inside the hull insertions and candidate scans must
	// surface it long before the query would have finished.
	ds, err := NewDataset(spherePoints(2000, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, err := ds.QueryContext(ctx, 80, WithCandidates(CandidatesAll))
	elapsed := time.Since(start)
	if ans != nil {
		t.Fatalf("deadline-exceeded query returned an answer: %+v", ans)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
}

func TestBuildIndexContextCanceled(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.BuildIndexContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := ds.BuildIndexUpToContext(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("UpTo: want context.Canceled, got %v", err)
	}
}

func TestEvaluateContextCanceled(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ds.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.EvaluateMRRContext(ctx, ans.Indices); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateMRR: want context.Canceled, got %v", err)
	}
	if _, _, err := ds.WorstUtilityContext(ctx, ans.Indices); !errors.Is(err, context.Canceled) {
		t.Fatalf("WorstUtility: want context.Canceled, got %v", err)
	}
}

// Regression: weight vectors of the wrong dimension or with
// non-finite components must come back as errors, never reach the
// core's dot products (which panic on dimension mismatch) and never
// produce a silent NaN regret.
func TestRegretOfWeightValidation(t *testing.T) {
	ds, err := NewDataset(testPoints(50, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	sel := []int{0, 1, 2}
	cases := map[string]Point{
		"short":    {1, 1},
		"long":     {1, 1, 1, 1},
		"nan":      {1, math.NaN(), 1},
		"inf":      {1, math.Inf(1), 1},
		"negative": {1, -1, 1},
	}
	for name, w := range cases {
		r, err := ds.RegretOf(sel, w)
		if err == nil {
			t.Errorf("%s weights accepted, regret %v", name, r)
		}
		if math.IsNaN(r) {
			t.Errorf("%s weights produced NaN", name)
		}
	}
	// Sanity: valid weights still work.
	if _, err := ds.RegretOf(sel, Point{1, 1, 1}); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
}

func TestSelectionValidation(t *testing.T) {
	ds, err := NewDataset(testPoints(50, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for name, sel := range map[string][]int{
		"empty":    {},
		"negative": {-1},
		"beyond":   {0, 50},
	} {
		if _, err := ds.EvaluateMRR(sel); err == nil {
			t.Errorf("EvaluateMRR accepted %s selection", name)
		}
		if _, _, err := ds.WorstUtility(sel); err == nil {
			t.Errorf("WorstUtility accepted %s selection", name)
		}
		if _, err := ds.RegretOf(sel, Point{1, 1, 1}); err == nil {
			t.Errorf("RegretOf accepted %s selection", name)
		}
	}
}

// The panic boundary converts a geometry-core panic into a typed
// *NumericalError instead of unwinding into the caller.
func TestPanicBoundary(t *testing.T) {
	boom := errors.New("boom")
	err := protect("TestOp", func() error { panic(boom) })
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("want *NumericalError, got %T: %v", err, err)
	}
	if ne.Op != "TestOp" || ne.PanicValue != boom {
		t.Fatalf("boundary lost context: %+v", ne)
	}
	if ne.Error() == "" {
		t.Fatal("empty error message")
	}
	// Non-panicking functions pass through untouched.
	if err := protect("TestOp", func() error { return nil }); err != nil {
		t.Fatalf("clean run reported %v", err)
	}
	sentinel := errors.New("sentinel")
	if err := protect("TestOp", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error passthrough broken: %v", err)
	}
}

func TestRetriableClassification(t *testing.T) {
	if retriable(context.Canceled) {
		t.Fatal("context.Canceled must never enter the fallback chain")
	}
	if retriable(context.DeadlineExceeded) {
		t.Fatal("context.DeadlineExceeded must never enter the fallback chain")
	}
	if retriable(errors.New("kregret: some validation error")) {
		t.Fatal("plain errors must not be retried")
	}
	if !retriable(&NumericalError{PanicValue: "boom"}) {
		t.Fatal("recovered panics must be retriable")
	}
}

// The degradation retry must be reproducible and must not move any
// point by more than float noise.
func TestPerturbedDeterministicAndTiny(t *testing.T) {
	ds, err := NewDataset(testPoints(100, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	pts := ds.snap().rows.Views()
	a, b := perturbed(pts), perturbed(pts)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("perturbation not deterministic at [%d][%d]", i, j)
			}
			if a[i][j] <= 0 {
				t.Fatalf("perturbation lost positivity at [%d][%d]: %v", i, j, a[i][j])
			}
			rel := math.Abs(a[i][j]-pts[i][j]) / pts[i][j]
			if rel > 2e-9 {
				t.Fatalf("perturbation too large at [%d][%d]: rel=%v", i, j, rel)
			}
		}
	}
	// Originals untouched.
	if &a[0][0] == &pts[0][0] {
		t.Fatal("perturbed aliases the input")
	}
}

// A normal QueryContext must behave exactly like Query, including the
// degradation metadata staying zero.
func TestQueryContextMatchesQuery(t *testing.T) {
	ds, err := NewDataset(testPoints(200, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ds.Query(6)
	if err != nil {
		t.Fatal(err)
	}
	ctxAns, err := ds.QueryContext(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MRR != ctxAns.MRR || len(plain.Indices) != len(ctxAns.Indices) {
		t.Fatalf("answers diverge: %+v vs %+v", plain, ctxAns)
	}
	if ctxAns.Degraded || ctxAns.FallbackReason != "" {
		t.Fatalf("healthy query marked degraded: %+v", ctxAns)
	}
	if ctxAns.Algorithm != AlgoGeoGreedy {
		t.Fatalf("algorithm mislabeled: %v", ctxAns.Algorithm)
	}
}

// Engine lifecycle: Shutdown drains in-flight queries, rejects new
// ones with ErrShuttingDown, and a post-shutdown Query returns
// immediately — it must never deadlock (guarded by a watchdog).
func TestEngineShutdownLifecycle(t *testing.T) {
	ds, err := NewDataset(spherePoints(2000, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithWorkers(2), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}

	// Launch in-flight work that takes real time (seconds of GeoGreedy
	// on this dataset, bounded by its own deadline).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	inflight := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := eng.Query(ctx, 80, WithCandidates(CandidatesAll))
			inflight <- err
		}()
	}
	// Wait until both queries are actually running.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queries never started: %+v", eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	// Drained means the in-flight queries finished (here: hit their
	// own deadline) by the time Shutdown returned; the callers may
	// need a scheduler beat to observe it.
	for i := 0; i < 2; i++ {
		select {
		case err := <-inflight:
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("drained query returned %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("Shutdown returned before an in-flight query finished")
		}
	}

	// New queries are rejected, and never block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := eng.Query(context.Background(), 5); !errors.Is(err, ErrShuttingDown) {
			t.Errorf("post-shutdown query: want ErrShuttingDown, got %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-shutdown Query deadlocked")
	}
	if eng.Stats().RejectedShutdown == 0 {
		t.Fatalf("rejection not counted: %+v", eng.Stats())
	}
	// Shutdown is idempotent.
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
