package kregret

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// The reference construction: NewDataset as it was before ingestion
// became one flat allocation — a per-point Clone, a per-point
// normalization into freshly allocated vectors, then a re-validation
// of every vector. NewDataset, and dataset.Normalize on the
// normalized path, must reproduce its coordinates bit for bit and its
// errors by text and by errors.Is.

const refMinCoord = 1e-6

func refClampCoord(x float64) float64 {
	switch {
	case x < refMinCoord:
		return refMinCoord
	case x > 1:
		return 1
	}
	return x
}

func refNormalize(pts []geom.Vector) ([]geom.Vector, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("%w: no points", dataset.ErrBadParams)
	}
	d := len(pts[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional points", dataset.ErrBadParams)
	}
	maxs := make([]float64, d)
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want %d", dataset.ErrBadParams, i, len(p), d)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("%w: point %d has non-finite coordinates", dataset.ErrBadParams, i)
		}
		for j, x := range p {
			if x < 0 {
				return nil, fmt.Errorf("%w: point %d has negative coordinate %g on dimension %d (negate or shift smaller-is-better attributes first)",
					dataset.ErrBadParams, i, x, j)
			}
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	for j, m := range maxs {
		if m <= 0 {
			return nil, fmt.Errorf("%w: dimension %d has maximum %g, need positive", dataset.ErrBadParams, j, m)
		}
	}
	out := make([]geom.Vector, len(pts))
	for i, p := range pts {
		q := make(geom.Vector, d)
		for j, x := range p {
			q[j] = refClampCoord(x / maxs[j])
		}
		out[i] = q
	}
	return out, nil
}

func refValidate(pts []geom.Vector) error {
	d := len(pts[0])
	for i, p := range pts {
		if len(p) != d {
			return fmt.Errorf("kregret: point %d has dimension %d, want %d", i, len(p), d)
		}
		if !p.IsFinite() || !p.AllPositive() {
			return fmt.Errorf("kregret: point %d (%v) must be finite and strictly positive (use normalization or shift your data)", i, p)
		}
	}
	return nil
}

func refNewDataset(points []Point, normalize bool) ([]geom.Vector, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	pts := make([]geom.Vector, len(points))
	for i, p := range points {
		pts[i] = geom.Vector(p).Clone()
	}
	if normalize {
		norm, err := refNormalize(pts)
		if err != nil {
			return nil, fmt.Errorf("kregret: %w", err)
		}
		pts = norm
	}
	if err := refValidate(pts); err != nil {
		return nil, err
	}
	return pts, nil
}

// ingestPaths are NewDataset's two option paths.
var ingestPaths = []struct {
	name      string
	normalize bool
	opts      []Option
}{
	{"normalized", true, nil},
	{"WithoutNormalization", false, []Option{WithoutNormalization()}},
}

// ingestSentinels are the errors a construction error may wrap.
var ingestSentinels = []error{ErrNoPoints, dataset.ErrBadParams}

func sameIngestError(t *testing.T, got, want error) {
	t.Helper()
	if got.Error() != want.Error() {
		t.Fatalf("error %q, reference %q", got, want)
	}
	for _, s := range ingestSentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			t.Fatalf("errors.Is(%q, %v) = %v, reference %v", got, s, errors.Is(got, s), errors.Is(want, s))
		}
	}
}

func samePointBits(t *testing.T, got, want []geom.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d points, reference %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("point %d has dimension %d, reference %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("point %d coordinate %d = %v (%016x), reference %v (%016x)",
					i, j, got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
}

// scaled returns vs with dimension j multiplied by scale[j], so the
// normalized path has maxima other than 1 to divide by.
func scaled(vs []geom.Vector, scale ...float64) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		p := make(Point, len(v))
		for j, x := range v {
			p[j] = x * scale[j%len(scale)]
		}
		out[i] = p
	}
	return out
}

func TestNewDatasetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	random := make([]Point, 500)
	for i := range random {
		random[i] = Point{rng.Float64() * 3, rng.ExpFloat64(), 1e-3 + rng.Float64()*1e-3}
	}
	anti, err := dataset.AntiCorrelated(2000, 4, 20140331)
	if err != nil {
		t.Fatal(err)
	}
	dup := make([]Point, 64)
	for i := range dup {
		dup[i] = Point{0.3, 7, 2.5}
	}
	inputs := []struct {
		name string
		pts  []Point
	}{
		{"random", random},
		{"anti-correlated", scaled(anti, 3, 0.5, 1000, 1e-3)},
		{"anti-correlated unit", scaled(anti, 1)},
		{"duplicates", dup},
		// The normalized path clamps zeros to minCoord; without
		// normalization they must fail with the reference's error.
		{"zero coordinates", []Point{{0, 2}, {3, 0}, {1.5, 1}, {0, 0}}},
		{"negative zero", []Point{{math.Copysign(0, -1), 1}, {1, 1}}},
		// Every dimension's maximum is attained, so x / max_j is
		// exactly 1 there.
		{"per-dimension maxima", []Point{{4, 1e-9, 2}, {1e-9, 0.25, 2}, {4, 0.25, 1}, {2, 0.125, 1}}},
		{"subnormal", []Point{{5e-324, 1}, {1, 5e-324}, {math.MaxFloat64, 1}}},
		{"single point", []Point{{0.7, 0.2, 0.9, 0.4}}},
	}
	for _, in := range inputs {
		for _, path := range ingestPaths {
			t.Run(in.name+"/"+path.name, func(t *testing.T) {
				want, wantErr := refNewDataset(in.pts, path.normalize)
				ds, err := NewDataset(in.pts, path.opts...)
				if wantErr != nil {
					if err == nil {
						t.Fatalf("accepted; reference rejects with %q", wantErr)
					}
					sameIngestError(t, err, wantErr)
					return
				}
				if err != nil {
					t.Fatalf("rejected with %q; reference accepts", err)
				}
				samePointBits(t, ds.snap().rows.Views(), want)
				if !path.normalize {
					return
				}
				// dataset.Normalize is the same construction.
				vs := make([]geom.Vector, len(in.pts))
				for i, p := range in.pts {
					vs[i] = geom.Vector(p)
				}
				norm, err := dataset.Normalize(vs)
				if err != nil {
					t.Fatalf("dataset.Normalize: %v", err)
				}
				samePointBits(t, norm, want)
			})
		}
	}
}

func TestNewDatasetRejectsLikeReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		pts  []Point
	}{
		{"empty", []Point{}},
		{"nil", nil},
		{"ragged", []Point{{1, 2}, {1}}},
		{"ragged longer", []Point{{1, 2}, {1, 2, 3}}},
		{"NaN", []Point{{1, 2}, {nan, 1}}},
		{"+Inf", []Point{{1, 2}, {1, inf}}},
		{"-Inf", []Point{{1, 2}, {-inf, 1}}},
		{"negative", []Point{{1, 2}, {1, -0.5}}},
		{"negative then NaN", []Point{{1, 2}, {-1, nan}}},
		{"NaN before ragged", []Point{{1, 2}, {nan, 1}, {1}}},
		{"ragged before NaN", []Point{{1, 2}, {1}, {nan, 1}}},
		{"zero-maximum dimension", []Point{{0, 1}, {0, 2}}},
	}
	for _, c := range cases {
		for _, path := range ingestPaths {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				_, wantErr := refNewDataset(c.pts, path.normalize)
				if wantErr == nil {
					t.Fatal("reference accepts the case")
				}
				_, err := NewDataset(c.pts, path.opts...)
				if err == nil {
					t.Fatalf("accepted; reference rejects with %q", wantErr)
				}
				sameIngestError(t, err, wantErr)
			})
		}
	}
}

// TestNewDatasetOwnsOnePointArray: the epoch's points are one
// pointer-free row-major array of n·d coordinates, in order, capped at
// its length, and share nothing with the caller's slices.
func TestNewDatasetOwnsOnePointArray(t *testing.T) {
	for _, path := range ingestPaths {
		t.Run(path.name, func(t *testing.T) {
			// Five dimensions: 40-byte rows, which separately allocated
			// points would not pack back to back.
			in := []Point{{0.5, 0.25, 1, 0.5, 0.5}, {1, 0.5, 0.125, 1, 0.25}, {0.75, 1, 0.5, 0.5, 1}}
			ds, err := NewDataset(in, path.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var before []Point
			for i := 0; i < ds.Len(); i++ {
				before = append(before, ds.Point(i))
			}
			in[0][0], in[1][2] = 99, 99
			in[2] = Point{7, 7, 7, 7, 7}
			rows := ds.snap().rows
			data := rows.Data()
			if rows.Len() != len(in) || rows.Dim() != 5 || len(data) != 5*len(in) || cap(data) != len(data) {
				t.Fatalf("rows hold %d points of dimension %d in %d values (cap %d), want %d×5 in exactly %d",
					rows.Len(), rows.Dim(), len(data), cap(data), len(in), 5*len(in))
			}
			for i := range before {
				if got := ds.Point(i); !reflect.DeepEqual(got, before[i]) {
					t.Fatalf("caller's mutation reached point %d: %v, was %v", i, got, before[i])
				}
				row := rows.Row(i)
				if &row[0] != &data[5*i] || cap(row) != len(row) {
					t.Fatalf("point %d is not the capped row %d of the array", i, i)
				}
				if !reflect.DeepEqual(Point(row), before[i]) {
					t.Fatalf("row %d reads %v, point %d reads %v", i, row, i, before[i])
				}
			}
		})
	}
}

// TestNewDatasetAllocsFlat: ingestion allocates a fixed number of
// objects, however many points it copies: one count at two sizes
// below the split cutoff, where both passes run inline, and one (the
// fan-out's own handful more) at two sizes above it. Above it, the
// bytes are the row array's plus a constant: no per-point header array.
func TestNewDatasetAllocsFlat(t *testing.T) {
	anti, err := dataset.AntiCorrelated(100000, 4, 20140331)
	if err != nil {
		t.Fatal(err)
	}
	all := vecsToPoints(anti)
	sizes := [][2]int{{1000, 4000}, {70000, 100000}}
	for _, path := range ingestPaths {
		allocs := func(pts []Point) uint64 {
			return mallocs(func() {
				if _, err := NewDataset(pts, path.opts...); err != nil {
					t.Fatal(err)
				}
			})
		}
		for _, ns := range sizes {
			a, b := allocs(all[:ns[0]]), allocs(all[:ns[1]])
			if a != b {
				t.Fatalf("%s: %v allocations at n=%d, %v at n=%d", path.name, a, ns[0], b, ns[1])
			}
			t.Logf("%s: %v allocations at n=%d and n=%d", path.name, a, ns[0], ns[1])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewDataset(all, path.opts...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		rowBytes := uint64(8 * 4 * len(all))
		if got := after.TotalAlloc - before.TotalAlloc; got > rowBytes+64<<10 {
			t.Fatalf("%s: NewDataset of %d points allocated %d bytes, %d beyond its rows", path.name, len(all), got, got-rowBytes)
		}
	}
}

// mallocs returns the fewest heap objects one call of f allocated over
// five calls after a warm-up, at the current GOMAXPROCS:
// testing.AllocsPerRun sets GOMAXPROCS to 1, which would keep both of
// Ingest's passes inline.
func mallocs(f func()) uint64 {
	f()
	best := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// atWidth runs f with GOMAXPROCS set to w, which is the width every
// dataset pass runs at.
func atWidth(w int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	f()
}

// TestIngestWidthParity: at width 1 and width 2, on both paths and at
// sizes on each side of the split cutoff (two grains of 16,384
// points), NewDataset's coordinates are the reference's bit for bit.
func TestIngestWidthParity(t *testing.T) {
	anti, err := dataset.AntiCorrelated(50000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	in := scaled(anti, 3, 0.5, 1000, 1e-3)
	for _, n := range []int{1000, 32767, 32768, 50000} {
		for _, path := range ingestPaths {
			want, err := refNewDataset(in[:n], path.normalize)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2} {
				atWidth(w, func() {
					ds, err := NewDataset(in[:n], path.opts...)
					if err != nil {
						t.Fatalf("n=%d %s width %d: %v", n, path.name, w, err)
					}
					samePointBits(t, ds.snap().rows.Views(), want)
				})
			}
		}
	}
}

// TestIngestErrorWidthParity: with invalid points in two chunks of the
// read pass, the error names the lowest one, by the reference's text
// and errors.Is, at width 1 and width 2. The later chunk's point is of
// a different kind, so a report of it would read differently too.
func TestIngestErrorWidthParity(t *testing.T) {
	anti, err := dataset.AntiCorrelated(40000, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	bads := []struct {
		name        string
		first, last Point
	}{
		{"NaN then ragged", Point{math.NaN(), 0.5, 0.5}, Point{0.5, 0.5}},
		{"negative then +Inf", Point{0.5, -1, 0.5}, Point{0.5, math.Inf(1), 0.5}},
		{"ragged then NaN", Point{0.5, 0.5, 0.5, 0.5}, Point{math.NaN(), 0.5, 0.5}},
	}
	for _, b := range bads {
		in := vecsToPoints(anti)
		in[9000], in[30000] = b.first, b.last
		for _, path := range ingestPaths {
			_, wantErr := refNewDataset(in, path.normalize)
			if wantErr == nil {
				t.Fatalf("%s: the reference accepts", b.name)
			}
			for _, w := range []int{1, 2} {
				atWidth(w, func() {
					_, err := NewDataset(in, path.opts...)
					if err == nil {
						t.Fatalf("%s %s width %d: accepted; reference rejects with %q", b.name, path.name, w, wantErr)
					}
					sameIngestError(t, err, wantErr)
				})
			}
		}
	}
}
