package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	kregret "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
)

// workload is one traffic mix against one engine configuration. All
// use the anti-correlated d=4 generator (the paper's hard case), k
// uniform in [10, 50], and two closed-loop clients.
type workload struct {
	name, why string
	n         int
	// shards > 0 serves from WithShardedServing(shards, eps).
	shards int
	eps    float64
	// indexed serves default queries from a WithSnapshot StoredList and
	// restarts from the index snapshot its cold start saved.
	indexed bool
	// durable backs the dataset with a WAL fsynced on every mutation,
	// runs one writer beside one reader, and restarts from the WAL and
	// snapshot it wrote. It is the only workload that writes; the others
	// run their queries on two clients.
	durable bool
	// Per second of -seconds: the length of the query sequence (which
	// the durable workload's reader cycles through until the writer is
	// done) and the number of mutations. At -seconds 20, the run_seconds
	// of BENCHMARK.json, they are 4,000 queries (live-100k), 3,000,000
	// (indexed-100k), 8,000 (sharded-1m) and 1,000 mutations
	// (mutate-100k); on a 2-vCPU Xeon VM the timed phases of a run then
	// last 5–30 s.
	queriesPerSec, writesPerSec int
}

var workloads = []workload{
	{name: "live-100k", n: 100_000, queriesPerSec: 200,
		why: "every query runs core.Select and GeoGreedy over the ~2.3k cached happy points: the solver path"},
	{name: "indexed-100k", n: 100_000, indexed: true, queriesPerSec: 150_000,
		why: "the StoredList answers in O(k) with no solver, leaving the serve pool, epoch load and answer construction"},
	{name: "sharded-1m", n: 1_000_000, shards: 2, eps: 0.1, queriesPerSec: 400,
		why: "partition-merge build over 1M points; GeoGreedy on a ~50-point merged core beside GC over the 1M-point heap"},
	{name: "mutate-100k", n: 100_000, durable: true, queriesPerSec: 200, writesPerSec: 50,
		why: "fsynced WAL appends, an epoch fold and a compaction per mutation, beside a reader on freshly folded epochs"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	dim        = 4
	clients    = 2
	kMin, kMax = 10, 50
	// firstK is the query that ends a cold start or a restart.
	firstK = 20
	// A run samples setup once per round and, on the workloads that
	// restart, restart restartsPerRound times; each round's load is
	// timed as samples of at least minSample requests, at most
	// samplesPerPhase of them.
	restartsPerRound = 3
	samplesPerPhase  = 4
	minSample        = 10
)

// plan is one run of a workload at concrete sizes.
type plan struct {
	workload
	seed            int64
	queries, writes int
	// rounds: a run is this many rounds of cold start, a slice of the
	// load, then the restarts. Interleaving the phases makes every
	// metric sample the whole run, so a stretch of slow machine cannot
	// land on one phase only.
	rounds int
	traced bool
	// dir holds every file the run writes; spans, when set, receives
	// the traced run's spans.
	dir, spans string
}

func newPlan(w workload, seed int64, seconds int) plan {
	return plan{workload: w, seed: seed, queries: w.queriesPerSec * seconds, writes: w.writesPerSec * seconds, rounds: 10}
}

// mutation is one seeded dataset change.
type mutation struct {
	insert bool
	point  kregret.Point
	index  int
}

func (m mutation) engine() kregret.Mutation {
	if m.insert {
		return kregret.InsertMutation(m.point)
	}
	return kregret.DeleteMutation(m.index)
}

// payloadBytes is the size of the mutation's own data.
func (m mutation) payloadBytes() float64 {
	if m.insert {
		return float64(8 * len(m.point))
	}
	return 8
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Table     []layerRow         `json:"table,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Flags     []string           `json:"flags,omitempty"`
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runner holds one run's inputs, the current round's engine, and the
// measurements pooled over all rounds.
type runner struct {
	p   plan
	res *result
	rp  *replayer // nil when untraced

	pts  []kregret.Point // the generated points, as the engine receives them
	ks   []int
	muts []mutation
	refs map[int]*kregret.Answer

	eng    *kregret.Engine
	mirror *mirror

	setupS, restartS    []float64
	qlat, alat          []float64 // ms, by request; +Inf for a failure
	fps                 []uint64
	answered            []bool
	acked, readerPos    int
	answers, degraded   int
	rt                  runtimeSample // summed over the read phases
	rtOps               int
	shed, degr, retries uint64
	// Per sample (see samples): query latency p50 and p95, queries per
	// second, apply latency p50 and p90, mutations per second.
	qP50, qP95, qRate, aP50, aP90, aRate []float64

	// Replay state (traced runs): the points normalized as NewDataset
	// normalizes them, their skyline and certificate, the serving set
	// queries search, and the evaluation index MRR probes use.
	norm  []geom.Vector
	sky   []int
	cert  *happy.Cert
	serve servingSet
	eval  *core.EvalIndex
}

// run executes one workload and checks its answers. Only the cold
// starts, the queries, the mutations and the restarts are timed.
func run(ctx context.Context, p plan) (*result, error) {
	r := &runner{p: p, res: &result{Workload: p.name, Traced: p.traced, Metrics: map[string]float64{}, Layers: map[string]float64{}}}
	if p.traced {
		r.rp = newReplayer()
	}
	if err := r.generate(); err != nil {
		return nil, err
	}
	for i := 0; i < p.rounds; i++ {
		if err := r.round(ctx, i); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
	}
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.res.Metrics["mem_peak_mb"] = mem
	if p.shards > 0 {
		if err := r.verifyShardBound(); err != nil {
			return nil, err
		}
	}
	r.finish()
	if r.rp != nil && p.spans != "" {
		if err := r.rp.tr.writeSpans(p.spans, p.name); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// cloudSeed generates the point cloud every run starts from: the
// paper's anti-correlated instance, as BenchmarkPaper uses it. With a
// cloud drawn from the run's seed, mrr_mean spread by up to 0.27 and
// query latency by 0.12 (IQR ÷ median over ten seeds); with the cloud
// fixed but its order drawn from the seed, sharded-1m's mrr_mean still
// spread by 0.08, as the order moves the shard partition. mrr_mean is
// held to 1e-9, so the cloud and its order are fixed and the seed
// draws the order of the queries and the mutations.
const cloudSeed = 20140331

// generate makes the run's inputs: the n points, the points the writes
// insert (scaled into the data's normalized space), the k of every
// query, and the mutation sequence — alternating an insert of a fresh
// point with a delete of a uniformly random index.
func (r *runner) generate() error {
	p := r.p
	raw, err := dataset.AntiCorrelated(p.n+(p.writes+1)/2, dim, cloudSeed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.seed))
	data := raw[:p.n]
	r.pts = make([]kregret.Point, p.n)
	maxs := make([]float64, dim)
	for i, v := range data {
		r.pts[i] = kregret.Point(v)
		for j, x := range v {
			maxs[j] = math.Max(maxs[j], x)
		}
	}
	// Every k in [kMin, kMax] equally often, in seeded order: the
	// request multiset, and with it the work, is the same for every seed.
	r.ks = make([]int, p.queries)
	for i := range r.ks {
		r.ks[i] = kMin + i%(kMax-kMin+1)
	}
	rng.Shuffle(len(r.ks), func(i, j int) { r.ks[i], r.ks[j] = r.ks[j], r.ks[i] })
	for j := 0; j < p.writes; j++ {
		if j%2 == 1 {
			r.muts = append(r.muts, mutation{index: rng.Intn(p.n + 1)})
			continue
		}
		q := make(kregret.Point, dim)
		for d, x := range raw[p.n+j/2] {
			if !(maxs[d] > 0) {
				return fmt.Errorf("dimension %d has no positive coordinate", d)
			}
			q[d] = x / maxs[d]
		}
		r.muts = append(r.muts, mutation{insert: true, point: q})
	}
	r.alat = make([]float64, len(r.muts))
	if !p.durable {
		r.qlat = make([]float64, len(r.ks))
		r.fps = make([]uint64, len(r.ks))
		r.answered = make([]bool, len(r.ks))
	}
	if p.traced {
		r.norm, err = dataset.Normalize(data)
	}
	return err
}

func (r *runner) engineOptions(dir string) []kregret.EngineOption {
	var o []kregret.EngineOption
	if r.p.indexed {
		o = append(o, kregret.WithSnapshot(filepath.Join(dir, "index.snap")))
	}
	if r.p.shards > 0 {
		o = append(o, kregret.WithShardedServing(r.p.shards, r.p.eps))
	}
	return o
}

// open is one cold start: points in memory → NewDataset → NewEngine →
// the first answer. On an indexed workload whose dir already holds the
// index snapshot, NewEngine loads it instead: that is a restart.
func (r *runner) open(ctx context.Context, dir string) (*kregret.Dataset, *kregret.Engine, *kregret.Answer, error) {
	var opts []kregret.Option
	if r.p.durable {
		opts = append(opts, kregret.WithWAL(filepath.Join(dir, "data.wal"), filepath.Join(dir, "data.snap")), kregret.WithSyncEvery(1))
	}
	ds, err := kregret.NewDataset(r.pts, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := kregret.NewEngine(ds, r.engineOptions(dir)...)
	if err != nil {
		return nil, nil, nil, errors.Join(err, ds.Close())
	}
	ans, err := eng.Query(ctx, firstK)
	if err != nil {
		return nil, nil, nil, errors.Join(err, eng.Shutdown(ctx), ds.Close())
	}
	return ds, eng, ans, nil
}

// slice returns round i's share [lo, hi) of n items, cut at even
// offsets so every slice of the mutations starts with an insert.
func (r *runner) slice(i, n int) (int, int) {
	cut := func(i int) int {
		c := i * n / r.p.rounds
		return c - c%2
	}
	if i == r.p.rounds-1 {
		return cut(i), n
	}
	return cut(i), cut(i + 1)
}

// samples splits a round's share [lo, hi) of one phase into up to
// samplesPerPhase consecutive parts of at least minSample requests.
// Each part is timed as one sample of the phase's latency percentiles
// and rate: the reported values are medians over every sample of the
// run, and more, shorter samples make those medians steadier.
func samples(lo, hi int) [][2]int {
	n := min(samplesPerPhase, max(1, (hi-lo)/minSample))
	parts := make([][2]int, n)
	for j := range parts {
		parts[j] = [2]int{lo + j*(hi-lo)/n, lo + (j+1)*(hi-lo)/n}
	}
	return parts
}

// round is one cold start, a slice of the load, and the restarts.
func (r *runner) round(ctx context.Context, i int) error {
	dir := filepath.Join(r.p.dir, fmt.Sprintf("round%d", i))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	ds, eng, ans, err := r.open(ctx, dir)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("cold start: %w", err)
	}
	r.setupS = append(r.setupS, t1.Sub(t0).Seconds())
	r.eng = eng
	if r.rp != nil {
		if i == 0 {
			if err := r.replaySetup(ctx, t0, t1, ans); err != nil {
				return err
			}
		}
		if r.p.durable {
			if err := r.openMirror(dir); err != nil {
				return err
			}
		}
	}

	// A collection here, untimed, sets the load phase's heap goal from
	// the served state alone. Without it, a cycle that happened to mark
	// during the cold start's transient allocations set a goal 1.4×
	// higher on some runs of sharded-1m, and its VmHWM with it.
	runtime.GC()
	before := eng.Stats()
	var final *kregret.Answer
	rt, ops := readRuntime(), 0
	if r.p.durable {
		if i == 0 {
			// On the initial state: the epoch each later query sees
			// depends on the writer's progress.
			if err := r.references(ctx, eng); err != nil {
				return err
			}
		}
		wlo, whi := r.slice(i, len(r.muts))
		for _, s := range samples(wlo, whi) {
			ops += r.mixedPhase(ctx, s[0], s[1])
		}
		r.addRuntime(rt, ops)
		if final, err = eng.Query(ctx, firstK); err != nil {
			return err
		}
	} else {
		qlo, qhi := r.slice(i, len(r.ks))
		for _, s := range samples(qlo, qhi) {
			ops += r.readPhase(ctx, s[0], s[1])
		}
		r.addRuntime(rt, ops)
		if i == 0 {
			if err := r.verifyReads(ctx); err != nil {
				return err
			}
		}
	}
	st := eng.Stats()
	r.shed += st.ShedOverload + st.ShedDeadline - before.ShedOverload - before.ShedDeadline
	r.degr += st.Degraded - before.Degraded
	r.retries += st.Retries - before.Retries
	if r.p.durable {
		acked := int(st.MutationsApplied - before.MutationsApplied)
		var folded error
		if st.Rebuilds-before.Rebuilds != uint64(acked) {
			folded = fmt.Errorf("%d mutations acknowledged, %d epoch folds", acked, st.Rebuilds-before.Rebuilds)
		}
		r.check("every acknowledged mutation was folded", folded)
	}

	err = errors.Join(eng.Shutdown(ctx), ds.Close())
	if r.mirror != nil {
		err = errors.Join(err, r.mirror.close())
	}
	r.eng, r.mirror = nil, nil
	if err != nil {
		return err
	}
	if r.p.indexed || r.p.durable {
		return r.restart(ctx, i, dir, ds, final)
	}
	return nil
}

func (r *runner) addRuntime(before runtimeSample, ops int) {
	after := readRuntime()
	r.rt.allocBytes += after.allocBytes - before.allocBytes
	r.rt.allocs += after.allocs - before.allocs
	r.rt.gcCycles += after.gcCycles - before.gcCycles
	r.rt.gcCPU += after.gcCPU - before.gcCPU
	r.rt.totalCPU += after.totalCPU - before.totalCPU
	r.rtOps += ops
}

// readPhase runs queries [lo, hi) of the sequence on two closed-loop
// clients that share one cursor, timing every Engine.Query. It returns
// the number of queries.
func (r *runner) readPhase(ctx context.Context, lo, hi int) int {
	var cursor, failed, degraded atomic.Int64
	cursor.Store(int64(lo))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= hi {
					return
				}
				t0 := time.Now()
				ans, err := r.eng.Query(ctx, r.ks[i])
				t1 := time.Now()
				if err != nil {
					r.qlat[i] = math.Inf(1)
					failed.Add(1)
					continue
				}
				r.qlat[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
				r.fps[i], r.answered[i] = fingerprint(ans), true
				if ans.Degraded {
					degraded.Add(1)
				}
				if r.rp != nil && i%traceEvery == 0 {
					r.replayRead(ctx, t0, t1, r.ks[i], ans)
				}
			}
		}()
	}
	wg.Wait()
	nf := int(failed.Load())
	r.querySample(r.qlat[lo:hi], hi-lo-nf, time.Since(start))
	r.res.Attempted += hi - lo
	r.res.Failed += nf
	r.answers += hi - lo - nf
	r.degraded += int(degraded.Load())
	return hi - lo
}

// querySample records one sample's query latency percentiles and rate.
// The reported values are medians over the samples, so a slow stretch
// of a shared machine that covers a few of them does not move them.
func (r *runner) querySample(lat []float64, done int, wall time.Duration) {
	s := sortedCopy(lat)
	r.qP50 = append(r.qP50, percentile(s, 50))
	r.qP95 = append(r.qP95, percentile(s, 95))
	r.qRate = append(r.qRate, rate(done, wall))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func rate(done int, wall time.Duration) float64 {
	if w := wall.Seconds(); w > 0 {
		return float64(done) / w
	}
	return 0
}

// writePhase applies mutations [lo, hi) on one client, timing every
// Engine.Apply until it is acknowledged (and, at the default rebuild
// threshold of 1, folded).
func (r *runner) writePhase(ctx context.Context, lo, hi int) {
	acked := r.acked
	start := time.Now()
	for j := lo; j < hi; j++ {
		r.apply(ctx, j)
	}
	s := sortedCopy(r.alat[lo:hi])
	r.aP50 = append(r.aP50, percentile(s, 50))
	r.aP90 = append(r.aP90, percentile(s, 90))
	r.aRate = append(r.aRate, rate(r.acked-acked, time.Since(start)))
}

func (r *runner) apply(ctx context.Context, j int) {
	t0 := time.Now()
	err := r.eng.Apply(ctx, r.muts[j].engine())
	t1 := time.Now()
	r.res.Attempted++
	if err != nil {
		r.alat[j] = math.Inf(1)
		r.res.Failed++
		return
	}
	r.alat[j] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	r.acked++
	if r.rp != nil {
		r.replayWrite(j, r.muts[j], t0, t1)
	}
}

// mixedPhase is the durable workload's load: one client applies
// mutations [lo, hi) while the other queries until the writer is done.
// It returns the number of requests.
func (r *runner) mixedPhase(ctx context.Context, lo, hi int) int {
	var done atomic.Bool
	var wg sync.WaitGroup
	var qlat []float64
	var failed, degraded int
	// want: a sampled query's epoch was folded away while it ran, so
	// the sample was skipped and the next query is sampled instead.
	want := false
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		r.writePhase(ctx, lo, hi)
	}()
	go func() {
		defer wg.Done()
		for ; !done.Load(); r.readerPos++ {
			k := r.ks[r.readerPos%len(r.ks)]
			sampled := r.rp != nil && (want || r.readerPos%traceEvery == 0)
			var seq uint64
			if sampled {
				seq = r.eng.Dataset().Seq()
			}
			t0 := time.Now()
			ans, err := r.eng.Query(ctx, k)
			t1 := time.Now()
			if err != nil {
				qlat = append(qlat, math.Inf(1))
				failed++
				continue
			}
			qlat = append(qlat, float64(t1.Sub(t0).Nanoseconds())/1e6)
			if ans.Degraded {
				degraded++
			}
			if sampled {
				want = !r.replayEpochRead(ctx, seq, t0, t1, k, ans)
			}
		}
	}()
	wg.Wait()
	r.querySample(qlat, len(qlat)-failed, time.Since(start))
	r.res.Attempted += len(qlat)
	r.res.Failed += failed
	r.answers += len(qlat) - failed
	r.degraded += degraded
	if want {
		// Every sampled query overlapped a fold (queries that outlast the
		// gap between folds, as under the race detector): sample one more
		// on the settled epoch, outside the timed sample.
		k := r.ks[r.readerPos%len(r.ks)]
		r.readerPos++
		seq := r.eng.Dataset().Seq()
		t0 := time.Now()
		ans, err := r.eng.Query(ctx, k)
		t1 := time.Now()
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
		} else {
			r.replayEpochRead(ctx, seq, t0, t1, k, ans)
		}
	}
	return len(qlat) + hi - lo
}

// references queries every distinct k once, outside the timed phases,
// and derives mrr_mean over the query sequence from them.
func (r *runner) references(ctx context.Context, eng *kregret.Engine) error {
	r.refs = map[int]*kregret.Answer{}
	for _, k := range r.distinctKs() {
		a, err := eng.Query(ctx, k)
		if err != nil {
			return err
		}
		r.refs[k] = a
	}
	sum := 0.0
	for _, k := range r.ks {
		sum += r.refs[k].MRR
	}
	if len(r.ks) > 0 {
		r.res.Metrics["mrr_mean"] = sum / float64(len(r.ks))
	}
	return nil
}

func (r *runner) distinctKs() []int {
	seen := map[int]bool{}
	var ks []int
	for _, k := range r.ks {
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}

// verifyReads takes the reference answers after the first round's
// queries and checks them against an independent computation: the
// dataset's exact evaluator (unsharded live solver) or the live solver
// itself (StoredList).
func (r *runner) verifyReads(ctx context.Context) error {
	if err := r.references(ctx, r.eng); err != nil {
		return err
	}
	switch {
	case r.p.indexed:
		var errs []error
		for _, k := range r.distinctKs() {
			t0 := time.Now()
			live, err := r.eng.Dataset().Query(k)
			t1 := time.Now()
			if err != nil {
				return err
			}
			errs = append(errs, sameAnswer(r.refs[k], live))
			if r.rp != nil {
				id := r.rp.tr.newID()
				r.rp.tr.record(id, id, 0, "dataset.Query", t0, t1, nil)
				if err := r.rp.query(ctx, id, id, r.serve, k, live); err != nil {
					r.rp.fail(err)
				}
			}
		}
		r.check("index answers equal the live solver's", errors.Join(errs...))
	case r.p.shards == 0:
		var errs []error
		for _, k := range r.distinctKs() {
			errs = append(errs, checkExactMRR(r.eng.Dataset(), r.refs[k]))
		}
		r.check("Answer.MRR equals EvaluateMRR of its selection", errors.Join(errs...))
	}
	return nil
}

// verifyShardBound checks every distinct k's sharded answer against
// its regret over the full dataset. It runs on a dataset of its own so
// the evaluator's skyline never warms a serving dataset's caches.
func (r *runner) verifyShardBound() error {
	full, err := kregret.NewDataset(r.pts)
	if err != nil {
		return err
	}
	var errs []error
	for _, k := range r.distinctKs() {
		mrr, err := full.EvaluateMRR(r.refs[k].Indices)
		if err != nil {
			return err
		}
		errs = append(errs, checkShardBound(mrr, r.refs[k], r.p.eps))
	}
	r.check("true regret over all points ≤ Answer.MRR + eps", errors.Join(errs...))
	return nil
}

// restart times restartsPerRound restarts from the files the round
// left, each until the first answer: NewDataset → NewEngine over the
// existing index snapshot (indexed), or Recover(snapshot, WAL) →
// NewEngine (durable). A durable restart is checked against live, the
// dataset the round served, and final, that dataset's last answer.
func (r *runner) restart(ctx context.Context, i int, dir string, live *kregret.Dataset, final *kregret.Answer) error {
	snap, walPath := filepath.Join(dir, "data.snap"), filepath.Join(dir, "data.wal")
	for j := 0; j < restartsPerRound; j++ {
		runtime.GC()
		t0 := time.Now()
		var ds *kregret.Dataset
		var eng *kregret.Engine
		var ans *kregret.Answer
		var err error
		if r.p.indexed {
			ds, eng, ans, err = r.open(ctx, dir)
		} else {
			ds, eng, ans, err = r.recoverEngine(ctx, snap, walPath, dir)
		}
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		r.restartS = append(r.restartS, t1.Sub(t0).Seconds())
		if r.p.indexed {
			var rebuilt error
			if eng.Stats().SnapshotRebuilt {
				rebuilt = errors.New("the index snapshot was rebuilt")
			}
			r.check("restart loads the index snapshot", rebuilt)
		} else {
			r.check("Recover equals the live dataset", checkSameDataset(live, ds))
			r.check("recovered engine answers as the live one did", sameAnswer(final, ans))
		}
		if err := errors.Join(eng.Shutdown(ctx), ds.Close()); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if r.rp != nil && i == r.p.rounds-1 && j == restartsPerRound-1 {
			return r.replayRestart(ctx, snap, walPath, dir, t0, t1, ans)
		}
	}
	return nil
}

// recoverEngine is one durable restart: Recover → NewEngine → the first
// answer.
func (r *runner) recoverEngine(ctx context.Context, snap, walPath, dir string) (*kregret.Dataset, *kregret.Engine, *kregret.Answer, error) {
	ds, err := kregret.Recover(snap, walPath, kregret.WithSyncEvery(1))
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := kregret.NewEngine(ds, r.engineOptions(dir)...)
	if err != nil {
		return nil, nil, nil, errors.Join(err, ds.Close())
	}
	ans, err := eng.Query(ctx, firstK)
	if err != nil {
		return nil, nil, nil, errors.Join(err, eng.Shutdown(ctx), ds.Close())
	}
	return ds, eng, ans, nil
}

// check records a check's outcome; a check made once per round fails
// if any round fails it, with the first failure's detail.
func (r *runner) check(name string, err error) {
	for i := range r.res.Checks {
		c := &r.res.Checks[i]
		if c.Name == name {
			if err != nil && c.OK {
				c.OK, c.Detail = false, err.Error()
			}
			return
		}
	}
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.res.Checks = append(r.res.Checks, c)
}

// finish derives the reported metrics from the pooled measurements
// and, for a traced run, the per-layer metrics, the per-layer table
// and the replay check.
func (r *runner) finish() {
	m := r.res.Metrics
	m["setup_s"] = median(r.setupS)
	m["query_p50_ms"], m["query_p95_ms"], m["query_qps"] = median(r.qP50), median(r.qP95), median(r.qRate)
	if len(r.restartS) > 0 {
		m["restart_s"] = median(r.restartS)
	}
	if len(r.aRate) > 0 {
		m["apply_p50_ms"], m["apply_p90_ms"], m["apply_per_s"] = median(r.aP50), median(r.aP90), median(r.aRate)
	}
	if r.res.Attempted > 0 {
		m["fail_frac"] = float64(r.res.Failed) / float64(r.res.Attempted)
	}
	m["degraded_frac"] = 0
	if r.answers > 0 {
		m["degraded_frac"] = float64(r.degraded) / float64(r.answers)
	}
	if !r.p.durable {
		r.check("every request for a k got the same answer", checkIdentical(r.ks, r.fps, r.answered, r.refs))
	}
	if r.rp == nil {
		runtimeLayer(r.rt, r.rtOps, r.res.Layers)
		r.res.Layers["engine.shed"] = float64(r.shed)
		r.res.Layers["engine.degraded"] = float64(r.degr)
		r.res.Layers["engine.retries"] = float64(r.retries)
		return
	}
	sum := r.rp.tr.summarize()
	for k, v := range sum.layers() {
		r.res.Layers[k] = v
	}
	r.res.Table = sum.table()
	r.check("replayed answers equal the engine's", r.rp.err())
	if c, ok := r.res.Layers["trace.coverage"]; ok && !r.p.indexed && (c < 0.85 || c > 1.15) {
		r.res.Flags = append(r.res.Flags, fmt.Sprintf("trace.coverage %.3f is outside [0.85, 1.15]", c))
	}
}
