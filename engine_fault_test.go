//go:build kregretfault

// Fault-injection tests for the serving engine: the breaker
// trip → half-open → close cycle driven by an injected numerical
// storm, the forced queue overflow, and the torn-write → startup
// rebuild path. They compile only under the kregretfault tag
// (`make test-serve`).
package kregret

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestEngineBreakerCycleUnderNumericalStorm drives the full breaker
// lifecycle through the public API: an armed NaN site makes every
// GeoGreedy attempt fail (each query degrades through the fallback
// chain), the per-(algorithm, dim) breaker trips open and routes
// queries straight to Cube, and once the storm stops the half-open
// probe closes it again.
func TestEngineBreakerCycleUnderNumericalStorm(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds := faultDataset(t)
	const cooldown = 100 * time.Millisecond
	eng, err := NewEngine(ds, WithWorkers(1), WithBreaker(3, cooldown))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	key := AlgoGeoGreedy.String()

	// Storm: every GeoGreedy support value is NaN, so each query pays
	// the full retry ladder and comes back degraded.
	fault.Arm(fault.SiteGeoGreedySupport, -1)
	for i := 0; i < 3; i++ {
		ans, err := eng.Query(context.Background(), 5, WithCandidates(CandidatesAll))
		if err != nil {
			t.Fatalf("storm query %d failed outright: %v", i, err)
		}
		if !ans.Degraded {
			t.Fatalf("storm query %d not degraded: %+v", i, ans)
		}
	}
	if state := eng.Stats().Breakers[key]; state != "open" {
		t.Fatalf("breaker %s is %q after the storm, want open", key, state)
	}

	// Open breaker: the next query must not pay the retry ladder — it
	// goes straight to Cube, still labeled degraded.
	before := fault.Fired(fault.SiteGeoGreedySupport)
	ans, err := eng.Query(context.Background(), 5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("short-circuited query failed: %v", err)
	}
	if ans.Algorithm != AlgoCube || !ans.Degraded {
		t.Fatalf("open breaker did not route to Cube: %+v", ans)
	}
	if !strings.Contains(ans.FallbackReason, "circuit breaker open") {
		t.Fatalf("reason does not name the breaker: %q", ans.FallbackReason)
	}
	if fault.Fired(fault.SiteGeoGreedySupport) != before {
		t.Fatal("open breaker still ran GeoGreedy (NaN site fired)")
	}
	if eng.Stats().BreakerShortCircuits == 0 {
		t.Fatal("short circuit not counted")
	}

	// Storm over: after the cooldown the half-open probe runs the real
	// solver, succeeds, and closes the breaker.
	fault.Reset()
	time.Sleep(cooldown + 20*time.Millisecond)
	ans, err = eng.Query(context.Background(), 5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("probe query failed: %v", err)
	}
	if ans.Degraded || ans.Algorithm != AlgoGeoGreedy {
		t.Fatalf("probe did not run the real solver: %+v", ans)
	}
	if state := eng.Stats().Breakers[key]; state != "closed" {
		t.Fatalf("breaker %s is %q after a healthy probe, want closed", key, state)
	}
}

func TestEngineQueueFullInjection(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds := faultDataset(t)
	eng, err := NewEngine(ds, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	fault.Arm(fault.SiteServeQueueFull, 1)
	if _, err := eng.Query(context.Background(), 3); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded from armed queue-full site, got %v", err)
	}
	if got := fault.Fired(fault.SiteServeQueueFull); got != 1 {
		t.Fatalf("queue-full site fired %d times, want 1", got)
	}
	if eng.Stats().ShedOverload != 1 {
		t.Fatalf("shed not counted: %+v", eng.Stats())
	}
	if _, err := eng.Query(context.Background(), 3); err != nil {
		t.Fatalf("post-injection query failed: %v", err)
	}
}

// TestSaveFileTornWriteRecovery proves the crash-safety story end to
// end: a torn write (injected after the atomic rename) yields a file
// LoadFile rejects as ErrCorruptIndex, and engine startup on that
// file rebuilds the index and repairs the snapshot instead of
// failing.
func TestSaveFileTornWriteRecovery(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds := faultDataset(t)
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")

	fault.Arm(fault.SitePersistTornWrite, 1)
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatalf("torn save reported an error: %v", err)
	}
	if got := fault.Fired(fault.SitePersistTornWrite); got != 1 {
		t.Fatalf("torn-write site fired %d times, want 1", got)
	}
	if _, err := LoadFile(path, ds); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("torn snapshot: want ErrCorruptIndex, got %v", err)
	}

	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatalf("startup on torn snapshot failed: %v", err)
	}
	if !eng.Stats().SnapshotRebuilt {
		t.Fatal("torn snapshot not reported as rebuilt")
	}
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The rebuild repaired the file.
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("snapshot not repaired: %v", err)
	}
}
