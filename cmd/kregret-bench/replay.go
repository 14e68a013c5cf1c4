package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	kregret "repro"
	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/parallel"
	"repro/internal/skyline"
	"repro/internal/wal"
)

// traceEvery: the traced run replays one in traceEvery queries and
// mutations.
const traceEvery = 10

// replayer re-executes, from outside the engine, the layer calls one
// real request made, with the inputs and worker counts the engine
// used, and records each call as a span under the request's root. A
// replayed answer must equal the engine's bit for bit, which is what
// shows the replay ran the same work.
type replayer struct {
	tr *tracer
	// workers is the parallelism of the dataset-level caches (skyline,
	// happy certificate, StoredList): the process default, as in an
	// engine built with default options. Per-query solvers run with 1.
	workers    int
	mismatches atomic.Int64
	firstErr   atomic.Pointer[error]

	muProbe sync.Mutex
	probed  map[int]bool
}

func newReplayer() *replayer {
	return &replayer{tr: newTracer(), workers: parallel.Resolve(0), probed: map[int]bool{}}
}

// fail records a replay that errored or disagreed with the engine.
func (r *replayer) fail(err error) {
	r.mismatches.Add(1)
	r.firstErr.CompareAndSwap(nil, &err)
}

func (r *replayer) err() error {
	if p := r.firstErr.Load(); p != nil {
		return fmt.Errorf("%d replays failed or disagreed with the engine; first: %w", r.mismatches.Load(), *p)
	}
	return nil
}

// candidates replays the candidate-set build of an unsharded epoch:
// the skyline kernel, then the happy-point certificate among it.
func (r *replayer) candidates(trace, parent uint64, pts []geom.Vector) ([]int, []int, *happy.Cert, error) {
	var sky []int
	_, err := r.tr.timed(trace, parent, "skyline.kernel", func() (map[string]float64, error) {
		var err error
		if r.workers == 1 {
			sky, err = skyline.Of(pts)
		} else {
			sky, err = skyline.ComputeParallel(pts, 0)
		}
		return map[string]float64{"size": float64(len(sky)), "points": float64(len(pts))}, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var cert *happy.Cert
	var hp []int
	_, err = r.tr.timed(trace, parent, "happy.cert", func() (map[string]float64, error) {
		cert = happy.ComputeAmongSkylineCertParallel(pts, sky, r.workers)
		hp = cert.HappyPoints()
		return map[string]float64{"size": float64(len(hp)), "sky": float64(len(sky))}, nil
	})
	return sky, hp, cert, err
}

// selectCand replays core.Select of the candidate points.
func (r *replayer) selectCand(trace, parent uint64, pts []geom.Vector, idx []int) ([]geom.Vector, error) {
	var cand []geom.Vector
	_, err := r.tr.timed(trace, parent, "core.select", func() (map[string]float64, error) {
		var err error
		cand, err = core.Select(pts, idx)
		return map[string]float64{"candidates": float64(len(idx))}, err
	})
	return cand, err
}

// solve replays GeoGreedy with the engine's per-query parallelism of 1,
// then its dual-hull insertions as a child span.
func (r *replayer) solve(ctx context.Context, trace, parent uint64, cand []geom.Vector, k int) (*core.Result, error) {
	var res *core.Result
	id, err := r.tr.timed(trace, parent, "core.geogreedy", func() (map[string]float64, error) {
		var err error
		res, err = core.GeoGreedyParCtx(ctx, cand, k, 1)
		return map[string]float64{"k": float64(k)}, err
	})
	if err != nil {
		return nil, err
	}
	return res, r.dualHull(trace, id, cand, res.Indices)
}

// dualHull replays the double-description operations of a selection:
// the box 1/max per dimension, then one halfspace x·p ≤ 1 per selected
// point in selection order — exactly GeoGreedy's dual-hull updates.
func (r *replayer) dualHull(trace, parent uint64, cand []geom.Vector, sel []int) error {
	upper := make([]float64, len(cand[0]))
	for j := range upper {
		m := 0.0
		for _, p := range cand {
			m = math.Max(m, p[j])
		}
		if !(m > 0) {
			return fmt.Errorf("dimension %d has no positive coordinate", j)
		}
		upper[j] = 1 / m
	}
	_, err := r.tr.timed(trace, parent, "dd.replay", func() (map[string]float64, error) {
		poly, err := dd.NewBox(upper)
		if err != nil {
			return nil, err
		}
		for _, i := range sel {
			if _, err := poly.AddHalfspace(cand[i], 1); err != nil {
				return nil, err
			}
		}
		return map[string]float64{"adds": float64(len(sel)), "vertices": float64(poly.NumVertices())}, nil
	})
	return err
}

// storedList replays the StoredList build over the candidates, then
// its dual-hull insertions (the whole list, in list order).
func (r *replayer) storedList(ctx context.Context, trace, parent uint64, cand []geom.Vector) error {
	var list *core.StoredList
	id, err := r.tr.timed(trace, parent, "core.storedlist_build", func() (map[string]float64, error) {
		var err error
		list, err = core.BuildStoredListParCtx(ctx, cand, 0)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"len": float64(list.Len())}, nil
	})
	if err != nil {
		return err
	}
	order, err := list.Query(list.Len())
	if err != nil {
		return err
	}
	return r.dualHull(trace, id, cand, order)
}

// shardCore replays the partition–merge build of a sharded epoch: the
// ε-cover of every contiguous shard, then the coreset over the merged
// survivors. It returns the core's global indices and points.
func (r *replayer) shardCore(ctx context.Context, trace, parent uint64, pts []geom.Vector, shards int, eps float64) ([]int, []geom.Vector, error) {
	n := len(pts)
	var merged []int
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		_, err := r.tr.timed(trace, parent, "skyline.epscover", func() (map[string]float64, error) {
			surv, err := skyline.EpsCover(pts, lo, hi, eps/2)
			merged = append(merged, surv...)
			return map[string]float64{"survivors": float64(len(surv)), "points": float64(hi - lo)}, err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var coreIdx []int
	_, err := r.tr.timed(trace, parent, "coreset.build", func() (map[string]float64, error) {
		idx, mrr, err := coreset.Build(ctx, pts, merged, eps/2, r.workers)
		coreIdx = idx
		return map[string]float64{"size": float64(len(idx)), "candidates": float64(len(merged)), "mrr": mrr}, err
	})
	if err != nil {
		return nil, nil, err
	}
	corePts, err := core.Select(pts, coreIdx)
	return coreIdx, corePts, err
}

// servingSet is what a live query of one epoch searches: the points,
// the candidate indices into them, and the map from those points'
// indices to the engine's global indices (nil when they coincide).
type servingSet struct {
	pts    []geom.Vector
	cand   []int
	global []int
}

// query replays a live-solver query and checks it against the answer.
func (r *replayer) query(ctx context.Context, trace, parent uint64, set servingSet, k int, ans *kregret.Answer) error {
	cand, err := r.selectCand(trace, parent, set.pts, set.cand)
	if err != nil {
		return err
	}
	res, err := r.solve(ctx, trace, parent, cand, k)
	if err != nil {
		return err
	}
	got := &kregret.Answer{Indices: make([]int, len(res.Indices)), MRR: res.MRR}
	for i, ci := range res.Indices {
		got.Indices[i] = set.cand[ci]
		if set.global != nil {
			got.Indices[i] = set.global[got.Indices[i]]
		}
	}
	return sameAnswer(ans, got)
}

// indexQuery replays a StoredList-served query.
func (r *replayer) indexQuery(trace, parent uint64, idx *kregret.Index, k int, ans *kregret.Answer) error {
	var got *kregret.Answer
	_, err := r.tr.timed(trace, parent, "core.storedlist_query", func() (map[string]float64, error) {
		var err error
		got, err = idx.Query(k)
		return nil, err
	})
	if err != nil {
		return err
	}
	return sameAnswer(ans, got)
}

// probeMRR times the exact maximum regret ratio of an answer through
// the evaluation index, once per distinct k: it sizes the per-answer
// quality certificate an Answer could carry. index builds the
// evaluation index of the answer's epoch, untimed.
func (r *replayer) probeMRR(ctx context.Context, k int, sel []int, index func() (*core.EvalIndex, error)) error {
	r.muProbe.Lock()
	done := r.probed[k]
	r.probed[k] = true
	r.muProbe.Unlock()
	if done {
		return nil
	}
	x, err := index()
	if err != nil {
		return err
	}
	id := r.tr.newID()
	_, err = r.tr.timed(id, 0, "core.mrr_geometric", func() (map[string]float64, error) {
		_, err := x.MRRGeometricParCtx(ctx, sel, 0)
		return nil, err
	})
	return err
}

// evalIndex builds the evaluation index the dataset's evaluators use:
// the points plus the skyline as the extreme set.
func evalIndex(pts []geom.Vector, sky []int) (*core.EvalIndex, error) {
	x, err := core.NewEvalIndex(pts)
	if err != nil {
		return nil, err
	}
	return x, x.SetExtreme(sky)
}

// mirror follows the durable engine's base dataset through every
// mutation so the write path can be replayed: the points, and the
// skyline and happy certificate the incremental operators maintain.
// replica is a WAL-backed public Dataset that receives the same
// mutations, and log a scratch WAL for replaying appends and syncs.
type mirror struct {
	pts     []geom.Vector
	sky     []int
	cert    *happy.Cert
	replica *kregret.Dataset
	log     *wal.Log
	seq     uint64
	dir     string
}

// apply mirrors one mutation. With sampled set it records the replica
// call and the layer calls inside it as spans under parent; otherwise
// it only keeps the mirror in step. It returns the bytes the mutation
// wrote to the scratch log.
func (m *mirror) apply(r *replayer, trace, parent uint64, mu mutation, sampled bool) (int64, error) {
	name := "dataset.insert"
	if !mu.insert {
		name = "dataset.delete"
	}
	replica := func() (map[string]float64, error) {
		if mu.insert {
			_, err := m.replica.Insert(mu.point)
			return nil, err
		}
		return nil, m.replica.Delete(mu.index)
	}
	var id uint64
	if sampled {
		var err error
		if id, err = r.tr.timed(trace, parent, name, replica); err != nil {
			return 0, err
		}
	} else if _, err := replica(); err != nil {
		return 0, err
	}
	var walBytes int64
	if sampled {
		var err error
		if walBytes, err = m.replayWAL(r, trace, id, mu); err != nil {
			return 0, err
		}
	}
	step := func(name string, fn func() (map[string]float64, error)) error {
		if sampled {
			_, err := r.tr.timed(trace, id, name, fn)
			return err
		}
		_, err := fn()
		return err
	}
	if mu.insert {
		m.pts = append(m.pts, geom.Vector(mu.point))
		var removed []int
		var inserted bool
		err := step("skyline.update_insert", func() (map[string]float64, error) {
			var err error
			m.sky, removed, inserted, err = skyline.UpdateInsert(m.pts, m.sky)
			return nil, err
		})
		if err != nil {
			return 0, err
		}
		return walBytes, step("happy.update", func() (map[string]float64, error) {
			m.cert = happy.UpdateInsert(m.pts, m.cert, m.sky, removed, inserted)
			return nil, nil
		})
	}
	var entrants []int
	var wasSky bool
	err := step("skyline.update_delete", func() (map[string]float64, error) {
		var err error
		m.sky, entrants, wasSky, err = skyline.UpdateDelete(m.pts, m.sky, mu.index)
		return nil, err
	})
	if err != nil {
		return 0, err
	}
	copy(m.pts[mu.index:], m.pts[mu.index+1:])
	m.pts = m.pts[:len(m.pts)-1]
	return walBytes, step("happy.update", func() (map[string]float64, error) {
		m.cert = happy.UpdateDelete(m.pts, m.cert, mu.index, m.sky, entrants, wasSky)
		return nil, nil
	})
}

// replayWAL appends the mutation's record to the scratch log and syncs
// it, as a WAL-backed Dataset does before acknowledging.
func (m *mirror) replayWAL(r *replayer, trace, parent uint64, mu mutation) (int64, error) {
	m.seq++
	rec := wal.Record{Seq: m.seq, Op: wal.OpDelete, Index: mu.index}
	if mu.insert {
		rec = wal.Record{Seq: m.seq, Op: wal.OpInsert, Point: geom.Vector(mu.point)}
	}
	before := m.log.Size()
	_, err := r.tr.timed(trace, parent, "wal.append", func() (map[string]float64, error) {
		err := m.log.Append(rec)
		return map[string]float64{"bytes": float64(m.log.Size() - before)}, err
	})
	if err != nil {
		return 0, err
	}
	if _, err := r.tr.timed(trace, parent, "wal.sync", func() (map[string]float64, error) {
		return nil, m.log.Sync()
	}); err != nil {
		return 0, err
	}
	return m.log.Size() - before, nil
}

// compact replays the post-fold compaction on the replica and returns
// the size of the snapshot it wrote.
func (m *mirror) compact(r *replayer, trace, parent uint64) (int64, error) {
	var size int64
	_, err := r.tr.timed(trace, parent, "persist.compact", func() (map[string]float64, error) {
		if err := m.replica.Compact(); err != nil {
			return nil, err
		}
		info, err := os.Stat(filepath.Join(m.dir, "replica.snap"))
		if err != nil {
			return nil, err
		}
		size = info.Size()
		return map[string]float64{"bytes": float64(size)}, nil
	})
	return size, err
}

// close releases the replica's and the scratch log's files.
func (m *mirror) close() error {
	var errs []error
	if m.replica != nil {
		errs = append(errs, m.replica.Close())
	}
	if m.log != nil {
		errs = append(errs, m.log.Close())
	}
	return errors.Join(errs...)
}

// replaySetup replays the first cold start's layers on its data.
func (r *runner) replaySetup(ctx context.Context, t0, t1 time.Time, ans *kregret.Answer) error {
	rp := r.rp
	id := rp.tr.newID()
	rp.tr.record(id, id, 0, "setup", t0, t1, nil)
	var err error
	if r.p.shards > 0 {
		// The partition–merge build, then the candidate set of the
		// merged core that queries search.
		coreIdx, corePts, err := rp.shardCore(ctx, id, id, r.norm, r.p.shards, r.p.eps)
		if err != nil {
			return err
		}
		_, hp, _, err := rp.candidates(id, id, corePts)
		if err != nil {
			return err
		}
		r.serve = servingSet{pts: corePts, cand: hp, global: coreIdx}
		if r.sky, err = skyline.ComputeParallel(r.norm, 0); err != nil {
			return err
		}
		if err := rp.query(ctx, id, id, r.serve, firstK, ans); err != nil {
			rp.fail(err)
		}
	} else {
		var hp []int
		if r.sky, hp, r.cert, err = rp.candidates(id, id, r.norm); err != nil {
			return err
		}
		r.serve = servingSet{pts: r.norm, cand: hp}
		if r.p.indexed {
			if err := r.replayIndexBuild(ctx, id, r.norm, hp); err != nil {
				return err
			}
			if err := rp.indexQuery(id, id, r.eng.Index(), firstK, ans); err != nil {
				rp.fail(err)
			}
		} else if err := rp.query(ctx, id, id, r.serve, firstK, ans); err != nil {
			rp.fail(err)
		}
	}
	if r.p.durable {
		return nil // each epoch gets its own evaluation index
	}
	r.eval, err = evalIndex(r.norm, r.sky)
	return err
}

// replayIndexBuild replays an index build: core.Select of the happy
// points, the StoredList build, and the snapshot write.
func (r *runner) replayIndexBuild(ctx context.Context, trace uint64, pts []geom.Vector, hp []int) error {
	cand, err := r.rp.selectCand(trace, trace, pts, hp)
	if err != nil {
		return err
	}
	if err := r.rp.storedList(ctx, trace, trace, cand); err != nil {
		return err
	}
	path := filepath.Join(r.p.dir, "replay-index.snap")
	_, err = r.rp.tr.timed(trace, trace, "persist.index_save", func() (map[string]float64, error) {
		if err := r.eng.Index().SaveFile(path, r.eng.Dataset()); err != nil {
			return nil, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"bytes": float64(info.Size())}, nil
	})
	return err
}

// replayRead replays one query of a workload whose data does not
// change during the read phase.
func (r *runner) replayRead(ctx context.Context, t0, t1 time.Time, k int, ans *kregret.Answer) {
	rp := r.rp
	id := rp.tr.newID()
	rp.tr.record(id, id, 0, "engine.Query", t0, t1, nil)
	var err error
	if r.p.indexed {
		err = rp.indexQuery(id, id, r.eng.Index(), k, ans)
	} else {
		err = rp.query(ctx, id, id, r.serve, k, ans)
	}
	if err == nil {
		err = rp.probeMRR(ctx, k, ans.Indices, func() (*core.EvalIndex, error) { return r.eval, nil })
	}
	if err != nil {
		rp.fail(err)
	}
}

// replayEpochRead replays one query of the durable workload on the
// epoch it ran on. When a fold landed while the query ran, the epoch
// it saw is gone: the sample is skipped and it reports false.
func (r *runner) replayEpochRead(ctx context.Context, seq uint64, t0, t1 time.Time, k int, ans *kregret.Answer) bool {
	rp := r.rp
	ep := r.eng.Dataset()
	if ep.Seq() != seq {
		return false
	}
	pts := points(ep)
	hp, err := ep.HappyPoints()
	if err != nil {
		rp.fail(err)
		return true
	}
	id := rp.tr.newID()
	rp.tr.record(id, id, 0, "engine.Query", t0, t1, nil)
	err = rp.query(ctx, id, id, servingSet{pts: pts, cand: hp}, k, ans)
	if err == nil {
		err = rp.probeMRR(ctx, k, ans.Indices, func() (*core.EvalIndex, error) {
			sky, err := ep.Skyline()
			if err != nil {
				return nil, err
			}
			return evalIndex(pts, sky)
		})
	}
	if err != nil {
		rp.fail(err)
	}
	return true
}

// points materializes a dataset's normalized points.
func points(ds *kregret.Dataset) []geom.Vector {
	pts := make([]geom.Vector, ds.Len())
	for i := range pts {
		pts[i] = geom.Vector(ds.Point(i))
	}
	return pts
}

// openMirror starts following the round's engine's base dataset; its
// files go to dir. The base's candidate caches are warm, so its
// mutations run the incremental operators, and so do the replica's.
func (r *runner) openMirror(dir string) error {
	m := &mirror{pts: append([]geom.Vector(nil), r.norm...), sky: append([]int(nil), r.sky...), cert: r.cert, dir: dir}
	replica, err := kregret.NewDataset(r.pts,
		kregret.WithWAL(filepath.Join(dir, "replica.wal"), filepath.Join(dir, "replica.snap")), kregret.WithSyncEvery(1))
	if err != nil {
		return err
	}
	m.replica = replica
	r.mirror = m
	if _, err := replica.HappyPoints(); err != nil {
		return errors.Join(err, m.close())
	}
	// Synced explicitly, so the append and the fsync are timed apart.
	if m.log, _, err = wal.Open(filepath.Join(dir, "scratch.wal"), wal.Config{SyncEvery: math.MaxInt32}); err != nil {
		return errors.Join(err, m.close())
	}
	return nil
}

// replayWrite keeps the mirror in step with one acknowledged mutation
// and, for one in traceEvery of them, replays the layers behind it:
// the mutation on the replica, then the post-fold compaction.
func (r *runner) replayWrite(j int, mu mutation, t0, t1 time.Time) {
	rp := r.rp
	// Mutations alternate insert and delete, so sampling adjacent pairs
	// replays both kinds.
	sampled := j%(2*traceEvery) < 2
	var id uint64
	if sampled {
		id = rp.tr.newID()
	}
	written, err := r.mirror.apply(rp, id, id, mu, sampled)
	if err != nil || !sampled {
		if err != nil {
			rp.fail(err)
		}
		return
	}
	n, err := r.mirror.compact(rp, id, id)
	if err != nil {
		rp.fail(err)
	}
	rp.tr.record(id, id, 0, "engine.Apply", t0, t1, map[string]float64{"written": float64(written + n), "payload": mu.payloadBytes()})
}

// replayRestart replays a restart: the index load (indexed), or
// Recover and the candidate build (durable), then the first answer.
func (r *runner) replayRestart(ctx context.Context, snap, walPath, dir string, t0, t1 time.Time, ans *kregret.Answer) error {
	rp := r.rp
	id := rp.tr.newID()
	rp.tr.record(id, id, 0, "restart", t0, t1, nil)
	if r.p.indexed {
		ds, err := kregret.NewDataset(r.pts)
		if err != nil {
			return err
		}
		var idx *kregret.Index
		_, err = rp.tr.timed(id, id, "persist.index_load", func() (map[string]float64, error) {
			var err error
			idx, err = kregret.LoadFile(filepath.Join(dir, "index.snap"), ds)
			return nil, err
		})
		if err != nil {
			return err
		}
		if err := rp.indexQuery(id, id, idx, firstK, ans); err != nil {
			rp.fail(err)
		}
		return nil
	}
	var ds *kregret.Dataset
	_, err := rp.tr.timed(id, id, "persist.recover", func() (map[string]float64, error) {
		var err error
		ds, err = kregret.Recover(snap, walPath, kregret.WithSyncEvery(1))
		if err != nil {
			return nil, err
		}
		return map[string]float64{"points": float64(ds.Len())}, nil
	})
	if err != nil {
		return err
	}
	pts := points(ds)
	_, hp, _, err := rp.candidates(id, id, pts)
	if err == nil {
		if err := rp.query(ctx, id, id, servingSet{pts: pts, cand: hp}, firstK, ans); err != nil {
			rp.fail(err)
		}
	}
	return errors.Join(err, ds.Close())
}
