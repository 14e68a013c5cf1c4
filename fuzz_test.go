package kregret

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// decodePoints turns fuzzer bytes into a point set. Two decodings
// share the corpus: mode 0 maps byte pairs into (0, 1] — always a
// structurally valid dataset, so the solvers themselves get fuzzed —
// while mode 1 reinterprets raw float64 bits, feeding NaN, ±Inf,
// subnormals and huge spreads straight into validation.
func decodePoints(data []byte) []Point {
	if len(data) < 4 {
		return nil
	}
	d := 1 + int(data[0])%5
	mode := data[1] % 2
	body := data[2:]
	var coords []float64
	if mode == 0 {
		for i := 0; i+1 < len(body); i += 2 {
			u := binary.LittleEndian.Uint16(body[i:])
			coords = append(coords, float64(u+1)/65536)
		}
	} else {
		for i := 0; i+7 < len(body); i += 8 {
			coords = append(coords, math.Float64frombits(binary.LittleEndian.Uint64(body[i:])))
		}
	}
	n := len(coords) / d
	if n == 0 {
		return nil
	}
	if n > 200 {
		n = 200 // bound per-input work
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point(coords[i*d : (i+1)*d])
	}
	return pts
}

// seedCorpus holds the degenerate shapes the robustness layer must
// survive: duplicates, collinear runs, near-zero coordinates, huge
// spreads, single points, and raw-bits garbage.
func seedCorpus(f *testing.F) {
	duplicate := []byte{1, 0}
	for i := 0; i < 8; i++ {
		duplicate = append(duplicate, 0x10, 0x20, 0x10, 0x20) // same 2-d point repeated
	}
	f.Add(duplicate)
	collinear := []byte{1, 0}
	for i := 1; i <= 8; i++ {
		collinear = append(collinear, byte(i), 0, byte(i), 0) // points on the diagonal
	}
	f.Add(collinear)
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}) // near-zero next to near-one
	f.Add([]byte{0, 0, 5, 5})                                                 // 1-d minimal
	f.Add([]byte{4, 0, 1, 2, 3})                                              // too short for one 5-d point
	raw := []byte{3, 1}
	for _, v := range []float64{math.NaN(), math.Inf(1), -1, 1e300, 5e-324, 0.5, 0.25, 1} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw)
}

// FuzzNewDataset asserts the constructor either rejects its input
// with an error or produces a dataset whose every accessor works — it
// must never panic and never accept non-finite coordinates or points
// with no dimensions. Each input goes through both option paths, and a
// mode byte of 0xfe or 0xff cuts every point to zero dimensions.
func FuzzNewDataset(f *testing.F) {
	seedCorpus(f)
	f.Add([]byte{0, 0xfe, 1, 2, 3, 4}) // two 1-d points, cut to zero dimensions
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if len(data) > 1 && data[1] >= 0xfe {
			for i := range pts {
				pts[i] = pts[i][:0]
			}
		}
		for _, opts := range [][]Option{nil, {WithoutNormalization()}} {
			ds, err := NewDataset(pts, opts...)
			if err != nil {
				continue
			}
			if ds.Dim() < 1 {
				t.Fatalf("accepted %d points of dimension %d", ds.Len(), ds.Dim())
			}
			for i := 0; i < ds.Len(); i++ {
				p := ds.Point(i)
				for j, x := range p {
					if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
						t.Fatalf("accepted point %d has invalid coordinate %d: %v", i, j, x)
					}
				}
			}
			sky, err := ds.Skyline()
			if err != nil {
				t.Fatalf("Skyline on valid dataset: %v", err)
			}
			happy, err := ds.HappyPoints()
			if err != nil {
				t.Fatalf("HappyPoints on valid dataset: %v", err)
			}
			if len(happy) > len(sky) {
				t.Fatalf("%d happy points but only %d skyline points", len(happy), len(sky))
			}
		}
	})
}

// FuzzQuery runs the full pipeline over fuzzer-shaped datasets with a
// fuzzer-chosen k and algorithm: the only acceptable outcomes are an
// error or a valid Answer (indices in range and unique, MRR in
// [0, 1]); any panic escapes the boundary and fails the fuzz run.
// Then an Engine over the same dataset answers default queries from
// its prefix list (see fuzzEnginePath), which must match the solver.
func FuzzQuery(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		ds, err := NewDataset(pts)
		if err != nil {
			return
		}
		k := 1 + int(data[0]>>4)%6
		alg := Algorithm(int(data[1]>>1) % 3)
		ans, err := ds.Query(k, WithAlgorithm(alg))
		if err != nil {
			return
		}
		if len(ans.Indices) == 0 || len(ans.Indices) > k {
			t.Fatalf("answer size %d for k=%d", len(ans.Indices), k)
		}
		seen := map[int]bool{}
		for _, i := range ans.Indices {
			if i < 0 || i >= ds.Len() {
				t.Fatalf("index %d out of range [0, %d)", i, ds.Len())
			}
			if seen[i] {
				t.Fatalf("duplicate index %d in answer", i)
			}
			seen[i] = true
		}
		if math.IsNaN(ans.MRR) || ans.MRR < 0 || ans.MRR > 1+1e-9 {
			t.Fatalf("MRR %v outside [0, 1]", ans.MRR)
		}
		// The answer must survive independent re-evaluation.
		mrr, err := ds.EvaluateMRR(ans.Indices)
		if err != nil {
			t.Fatalf("EvaluateMRR on query answer: %v", err)
		}
		if math.IsNaN(mrr) || mrr < 0 || mrr > 1+1e-9 {
			t.Fatalf("re-evaluated MRR %v outside [0, 1]", mrr)
		}
		fuzzEnginePath(t, ds, data, k)
		if data[1]%2 == 0 {
			// Mode 0 coordinates lie in [0, 1], so without a zero they
			// are a dataset as given too. Its maxima are mostly below
			// 1, where the engine's list over the skyline relies on
			// subjugated points and the epoch builds over D_happy.
			if raw, err := NewDataset(pts, WithoutNormalization()); err == nil {
				fuzzEnginePath(t, raw, data, k)
			}
		}
	})
}

// fuzzEnginePath drives an Engine's default path over ds: the
// fuzzer's k, then a larger k′ that grows the list, then k again after
// one fuzzer-chosen Apply (an insert of a point built from the input,
// or a delete). Each answer must equal Dataset.Query on the epoch
// that served it — indices, MRR bits, Algorithm and Degraded — and an
// error on one side must be an error on the other.
func fuzzEnginePath(t *testing.T, ds *Dataset, data []byte, k int) {
	eng, err := NewEngine(ds, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	check := func(k int) {
		ep := eng.Dataset()
		got, gerr := eng.Query(context.Background(), k)
		want, werr := ep.Query(k)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("k=%d: engine error %v, Dataset.Query error %v", k, gerr, werr)
		}
		if gerr == nil {
			if err := diffAnswer(got, want); err != nil {
				t.Fatalf("k=%d: engine answer differs from Dataset.Query: %v", k, err)
			}
		}
	}
	check(k)
	check(k + 1 + int(data[len(data)-1])%8)
	m := DeleteMutation(int(data[len(data)/2]) % ds.Len())
	if data[len(data)-1]%2 == 0 || ds.Len() == 1 {
		p := make(Point, ds.Dim())
		for j := range p {
			p[j] = float64(1+int(data[(j+3)%len(data)])) / 256
		}
		m = InsertMutation(p)
	}
	if err := eng.Apply(context.Background(), m); err != nil {
		t.Fatalf("apply: %v", err)
	}
	check(k)
}

// FuzzLoadIndex feeds the snapshot decoder valid snapshots, mutated
// snapshots and raw garbage, each input both as a whole file and as a
// payload inside a frame with a valid CRC-32C, so mutations reach the
// payload decoders instead of stopping at the CRC. The only acceptable
// outcomes are a typed error or an index whose answers validate: every
// Query(k) up to Len() answers, Len()+1 answers or fails, MinSize
// stays within the list, and no answer references a tuple outside the
// dataset — never a panic.
func FuzzLoadIndex(f *testing.F) {
	ds, err := NewDataset(testPoints(40, 3, 6))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf, ds); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0xff // bit-flipped payload
	f.Add(flipped)
	f.Add(valid[:3]) // shorter than the magic
	f.Add([]byte("KRGXgarbage after magic"))
	// A bare header claiming a 4 GiB payload: rejected without sizing
	// a buffer by the claim.
	f.Add(binary.LittleEndian.AppendUint64([]byte("KRGX\x02"), 1<<32))
	f.Add([]byte{})
	f.Add(indexPayload(f, ds, indexWire{Cand: idx.cand}, listStream(f, idx)))
	for _, tc := range inconsistentListPayloads(f, ds, idx) {
		f.Add(tc.payload)
	}
	f.Add(shardedCoreSnapshot(f, ds, 3, 0.1)) // a core: ErrIndexMismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, snap := range [][]byte{data, frameSnapshot(snapshotMagic, snapshotVersion, data)} {
			loaded, err := LoadIndex(bytes.NewReader(snap), ds)
			if err != nil {
				continue
			}
			// Whatever decoded must answer like a real index.
			for k := 1; k <= loaded.Len()+1; k++ {
				ans, err := loaded.Query(k)
				if err != nil {
					if k <= loaded.Len() {
						t.Fatalf("loaded index of length %d failed at k=%d: %v", loaded.Len(), k, err)
					}
					continue
				}
				if len(ans.Indices) == 0 || len(ans.Indices) > k {
					t.Fatalf("loaded index answered with %d tuples for k=%d", len(ans.Indices), k)
				}
				for _, i := range ans.Indices {
					if i < 0 || i >= ds.Len() {
						t.Fatalf("loaded index references tuple %d of %d", i, ds.Len())
					}
				}
				if math.IsNaN(ans.MRR) || ans.MRR < 0 || ans.MRR > 1+1e-9 {
					t.Fatalf("loaded index MRR %v outside [0, 1]", ans.MRR)
				}
			}
			for _, eps := range []float64{0, 0.01, 0.5, 1} {
				if k, ok := loaded.MinSize(eps); ok && (k < 1 || k > loaded.Len()) {
					t.Fatalf("MinSize(%v) = %d outside a list of length %d", eps, k, loaded.Len())
				}
			}
		}
	})
}

// FuzzDatasetSnapshot feeds the base snapshot decoder arbitrary
// payloads inside a frame with a valid CRC-32C, so every input reaches
// the shape and coordinate checks (flips and cuts of a whole file stop
// at the CRC, which TestRecoverCorruptSnapshot covers). An input loads
// or fails: a load has n, d ≥ 1 and n·d finite, strictly positive
// coordinates and re-encodes to the same payload, and a failure is
// ErrCorruptSnapshot. Memory grows with the bytes present, never with
// the header's claim.
func FuzzDatasetSnapshot(f *testing.F) {
	payload := func(seq, n, dim uint64, coords ...float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, seq)
		b = binary.LittleEndian.AppendUint64(b, n)
		b = binary.LittleEndian.AppendUint64(b, dim)
		for _, x := range coords {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(payload(3, 3, 2, 0.5, 1, 1, 0.5, 0.75, 0.75)) // valid 3×2
	f.Add(payload(0, 1<<62, 4))                         // n·d wraps to the zero coordinates present
	f.Add(payload(0, 1<<20, 4, 0.5, 0.5))               // promises 4 Mi coordinates, holds 2
	f.Add(payload(1, 1, 2, 0.5, 0))                     // a zero coordinate
	f.Add(payload(1, 1, 2, math.NaN(), 0.5))            // a NaN

	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := frameSnapshot(dsSnapMagic, dsSnapVersion, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := decodeDataset(frame)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(payload))+1<<20 {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("decode error is not ErrCorruptSnapshot: %v", err)
			}
			return
		}
		if w.Pts.Len() < 1 || w.Pts.Dim() < 1 {
			t.Fatalf("loaded %d points of dimension %d, want n, d ≥ 1", w.Pts.Len(), w.Pts.Dim())
		}
		for i, x := range w.Pts.Data() {
			if !(x > 0 && x <= math.MaxFloat64) {
				t.Fatalf("point %d loaded coordinate %g", i/w.Pts.Dim(), x)
			}
		}
		if again := w.appendWire(nil); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded payload differs:\n%x\nwant\n%x", again, payload)
		}
	})
}

// FuzzCoresetBound fuzzes the sharded ε-kernel layer end to end: for
// fuzzer-shaped datasets, a fuzzer-chosen shard count and eps,
// buildShardView's core must be a strictly ascending index set into
// the dataset whose own regret over the full dataset honors eps, and
// a query on the serving view must have true regret within eps of its
// reported value — the WithShardedServing contract, under adversarial
// geometry instead of friendly samples.
func FuzzCoresetBound(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pts := decodePoints(data)
		epsPct := int(data[0]^data[1]) % 90
		eps := float64(epsPct) / 100 // [0, 0.89]
		shards := 1 + int(data[1]>>4)%4
		ds, err := NewDataset(pts)
		if err != nil {
			return
		}
		serveDS, core, _, err := buildShardView(context.Background(), ds, shards, eps)
		if err != nil {
			return // degenerate geometry is allowed to fail, not panic
		}
		for i, c := range core {
			if c < 0 || c >= ds.Len() {
				t.Fatalf("core index %d outside [0, %d)", c, ds.Len())
			}
			if i > 0 && core[i-1] >= c {
				t.Fatalf("core not strictly ascending: %v", core)
			}
		}
		if epsPct == 0 {
			// The exact plan: every shard count serves the happy points.
			hp, err := ds.HappyPoints()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(core, hp) {
				t.Fatalf("eps=0 core %v != happy points %v", core, hp)
			}
		}
		coreMRR, err := ds.EvaluateMRR(core)
		if err != nil {
			t.Fatalf("EvaluateMRR on the core: %v", err)
		}
		if coreMRR > eps+1e-9 {
			t.Fatalf("core regret %v exceeds eps %v", coreMRR, eps)
		}
		k := 1 + int(data[0]>>4)%6
		ans, err := serveDS.Query(k)
		if err != nil {
			return
		}
		sel := make([]int, len(ans.Indices))
		for i, ci := range ans.Indices {
			sel[i] = core[ci]
		}
		trueMRR, err := ds.EvaluateMRR(sel)
		if err != nil {
			t.Fatalf("EvaluateMRR on the sharded answer: %v", err)
		}
		if trueMRR > ans.MRR+eps+1e-9 {
			t.Fatalf("true regret %v exceeds reported %v + eps %v", trueMRR, ans.MRR, eps)
		}
	})
}
