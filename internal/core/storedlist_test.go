package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// geom2DFixture: two extremes plus interior points; the greedy
// exhausts the hull after the two extremes.
func geom2DFixture() []geom.Vector {
	pts := []geom.Vector{{1, 0.05}, {0.05, 1}}
	for i := 0; i < 20; i++ {
		f := 0.3 + 0.02*float64(i)
		pts = append(pts, geom.Vector{0.5 * f, 0.5 * f})
	}
	return pts
}

func TestBuildStoredListUpTo(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := antiCorrelated(rng, 60, 3)
	full, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 8 {
		t.Skipf("degenerate draw: full list only %d entries", full.Len())
	}
	partial, err := BuildStoredListUpTo(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Len() != 8 {
		t.Fatalf("partial length %d, want 8", partial.Len())
	}
	// The partial list is a prefix of the full list with the same
	// regrets.
	for k := 1; k <= 8; k++ {
		a, err := full.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := partial.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d: %v vs %v", k, a, b)
		}
		ma, _ := full.MRRFor(k)
		mb, _ := partial.MRRFor(k)
		if ma != mb {
			t.Fatalf("k=%d: regrets %v vs %v", k, ma, mb)
		}
	}
	// Beyond the prefix: partial refuses, full serves.
	if _, err := partial.Query(9); err == nil {
		t.Fatal("query beyond partial prefix accepted")
	}
	if _, err := partial.MRRFor(9); err == nil {
		t.Fatal("MRRFor beyond partial prefix accepted")
	}
	if _, err := full.Query(10_000); err != nil {
		t.Fatalf("full list oversized query: %v", err)
	}
	if _, err := BuildStoredListUpTo(pts, 0); err != ErrBadK {
		t.Fatalf("maxLen=0: %v", err)
	}
}

func TestBuildStoredListUpToCompleteWhenExhausted(t *testing.T) {
	// Two extreme points, many interior: the greedy exhausts the
	// hull within the budget, so even the "partial" list is complete.
	pts := geom2DFixture()
	list, err := BuildStoredListUpTo(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := list.Query(10_000); err != nil {
		t.Fatalf("exhausted list should serve any k: %v", err)
	}
	mrr, err := list.MRRFor(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if mrr > 1e-9 {
		t.Fatalf("exhausted list regret %v", mrr)
	}
}

func TestPartialListSaveLoadKeepsCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := antiCorrelated(rng, 60, 3)
	partial, err := BuildStoredListUpTo(pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Len() < 6 {
		t.Skip("degenerate draw")
	}
	var buf bytes.Buffer
	if err := partial.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStoredList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Query(7); err == nil {
		t.Fatal("loaded partial list served beyond prefix")
	}
}

func TestMinK(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pts := antiCorrelated(rng, 80, 3)
	list, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Zero budget: needs the full hull, still answerable.
	k0, ok := list.MinK(0)
	if !ok {
		t.Fatal("complete list must answer eps=0")
	}
	m, err := list.MRRFor(k0)
	if err != nil || m > 0 {
		t.Fatalf("MinK(0) = %d with regret %v, %v", k0, m, err)
	}
	if k0 > 1 {
		prev, err := list.MRRFor(k0 - 1)
		if err != nil || prev <= 0 {
			t.Fatalf("MinK(0) not minimal: regret at %d is %v", k0-1, prev)
		}
	}
	// A middling budget.
	for _, eps := range []float64{0.01, 0.05, 0.2} {
		k, ok := list.MinK(eps)
		if !ok {
			t.Fatalf("eps=%v unanswerable", eps)
		}
		m, err := list.MRRFor(k)
		if err != nil || m > eps {
			t.Fatalf("MinK(%v) = %d has regret %v", eps, k, m)
		}
		if k > 1 {
			prev, _ := list.MRRFor(k - 1)
			if prev <= eps {
				t.Fatalf("MinK(%v) = %d not minimal (regret %v at %d)", eps, k, prev, k-1)
			}
		}
	}
	// Negative budget: unanswerable.
	if _, ok := list.MinK(-0.1); ok {
		t.Fatal("negative eps answered")
	}
	// NaN budget: unanswerable, not the end of the list.
	if k, ok := list.MinK(math.NaN()); k != 0 || ok {
		t.Fatalf("MinK(NaN) = (%d, %v), want (0, false)", k, ok)
	}
	// A partial list that never reaches a tiny budget.
	partial, err := BuildStoredListUpTo(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := partial.MRRFor(partial.Len()); m > 1e-9 {
		if _, ok := partial.MinK(0); ok {
			t.Fatal("partial list answered eps=0 despite positive tail regret")
		}
	}
}

// TestStoredListLazySeedPrices: the prefixes shorter than the boundary
// seed batch are priced on first read, and then every prefix — seed or
// not, in a full or a truncated list, read concurrently or after a
// save and load — reports GeoGreedy's answer and MRR bits at that k.
func TestStoredListLazySeedPrices(t *testing.T) {
	pts := antiCorrelated(rand.New(rand.NewSource(23)), 80, 4)
	full, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	if full.lazy != len(BoundaryPoints(pts))-1 || full.priced.Load() {
		t.Fatalf("full list: %d lazy prefixes (priced %v), want the %d short seed prefixes unpriced",
			full.lazy, full.priced.Load(), len(BoundaryPoints(pts))-1)
	}
	short, err := BuildStoredListUpTo(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if short.lazy != 2 {
		t.Fatalf("truncated list: %d lazy prefixes, want 2", short.lazy)
	}

	// Concurrent first reads share one pricing pass.
	done := make(chan float64, 8)
	for g := 0; g < 8; g++ {
		go func() {
			m, err := full.MRRFor(1)
			if err != nil {
				t.Error(err)
			}
			done <- m
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if m := <-done; math.Float64bits(m) != math.Float64bits(first) {
			t.Fatalf("concurrent reads priced k=1 as %v and %v", m, first)
		}
	}

	var buf bytes.Buffer
	if err := short.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStoredList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, list := range map[string]*StoredList{"full": full, "truncated": short, "loaded": loaded} {
		for k := 1; k <= list.Len(); k++ {
			want, err := GeoGreedy(pts, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := list.Query(k)
			if err != nil {
				t.Fatal(err)
			}
			mrr, err := list.MRRFor(k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.Indices) || math.Float64bits(mrr) != math.Float64bits(want.MRR) {
				t.Fatalf("%s k=%d: %v mrr=%x, GeoGreedy %v mrr=%x",
					name, k, got, math.Float64bits(mrr), want.Indices, math.Float64bits(want.MRR))
			}
		}
	}
	if !full.Covers(full.Len()+1) || short.Covers(3) || !short.Covers(2) || (*StoredList)(nil).Covers(1) {
		t.Fatal("Covers disagrees with completeness and length")
	}
}

// TestBuildStoredListRelied: rely is told every pick and every point
// pricing a regret, and the relied build is the plain one, lazy seed
// prefixes priced at once. Over any subset that keeps every relied-on
// candidate, in the same order, the plain build gives the same list,
// index for index and bit for bit. An error from rely ends the build.
func TestBuildStoredListRelied(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	pts := antiCorrelated(rng, 300, 4)
	for _, maxLen := range []int{1, 3, 4, 20, len(pts)} {
		relied := map[int]bool{}
		got, err := BuildStoredListUpToParCtx(ctx, pts, maxLen, 2, func(i int) error {
			relied[i] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.lazy > 0 && !got.priced.Load() {
			t.Fatalf("maxLen=%d: %d seed prefixes left unpriced", maxLen, got.lazy)
		}
		want, err := BuildStoredListUpTo(pts, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		// Keep the relied-on candidates and about half the others.
		var sub []int
		for i := range pts {
			if relied[i] || rng.Intn(2) == 0 {
				sub = append(sub, i)
			}
		}
		subPts, err := Select(pts, sub)
		if err != nil {
			t.Fatal(err)
		}
		over, err := BuildStoredListUpTo(subPts, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.Len() != over.Len() {
			t.Fatalf("maxLen=%d: lengths %d, plain %d, over the subset %d", maxLen, got.Len(), want.Len(), over.Len())
		}
		for k := 1; k <= got.Len(); k++ {
			g, _ := got.Query(k)
			w, _ := want.Query(k)
			o, _ := over.Query(k)
			for i := range o {
				o[i] = sub[o[i]]
			}
			gm, _ := got.MRRFor(k)
			wm, _ := want.MRRFor(k)
			om, _ := over.MRRFor(k)
			if !relied[g[k-1]] {
				t.Fatalf("maxLen=%d: pick %d was never relied on", maxLen, g[k-1])
			}
			if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(g, o) ||
				math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gm) != math.Float64bits(om) {
				t.Fatalf("maxLen=%d k=%d: relied %v (%x), plain %v (%x), over the subset %v (%x)",
					maxLen, k, g, math.Float64bits(gm), w, math.Float64bits(wm), o, math.Float64bits(om))
			}
		}
	}

	errStop := errors.New("stop")
	calls := 0
	_, err := BuildStoredListUpToParCtx(ctx, pts, 20, 1, func(int) error {
		if calls++; calls == 6 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || calls != 6 {
		t.Fatalf("a rejecting rely: err %v after %d calls", err, calls)
	}
}
