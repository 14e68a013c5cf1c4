package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Roots time a real call into the Engine;
// their descendants time replays of the layer calls behind it, made
// right after the real call. A replayed child therefore runs after its
// parent in wall time: the tree records which call a replay explains,
// and self time is computed from durations, not from overlap.
type span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record stores a span that ran from start to end.
func (t *tracer) record(trace, id, parent uint64, name string, start, end time.Time, counts map[string]float64) {
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), Counts: counts}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as span name under parent and returns the span's id.
// A failed call records no span.
func (t *tracer) timed(trace, parent uint64, name string, fn func() (map[string]float64, error)) (uint64, error) {
	id := t.newID()
	start := time.Now()
	counts, err := fn()
	end := time.Now()
	if err != nil {
		return id, fmt.Errorf("replaying %s: %w", name, err)
	}
	t.record(trace, id, parent, name, start, end, counts)
	return id, nil
}

// writeSpans appends the spans, one JSON object per line, to path.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		line := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("writing spans: %w (close: %v)", err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w (close: %v)", err, f.Close())
	}
	return f.Close()
}

// nameStats gathers every span of one name.
type nameStats struct {
	durs, selfs []float64 // ms
	counts      []map[string]float64
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	MedianSelf float64 `json:"median_self_ms"`
	P90Self    float64 `json:"p90_self_ms"`
}

// summary aggregates the spans by name. Self time is a span's duration
// minus its children's durations; coverage is, over all roots of one
// name, the children's total duration divided by the roots' total.
type summary struct {
	byName   map[string]*nameStats
	coverage map[string]float64
}

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

func (t *tracer) summarize() summary {
	spans := t.all()
	childMS := map[uint64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childMS[s.Parent] += s.ms()
		}
	}
	sum := summary{byName: map[string]*nameStats{}, coverage: map[string]float64{}}
	rootMS, rootChildMS := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		st := sum.byName[s.Name]
		if st == nil {
			st = &nameStats{}
			sum.byName[s.Name] = st
		}
		st.durs = append(st.durs, s.ms())
		st.selfs = append(st.selfs, s.ms()-childMS[s.ID])
		st.counts = append(st.counts, s.Counts)
		if s.Parent == 0 {
			rootMS[s.Name] += s.ms()
			rootChildMS[s.Name] += childMS[s.ID]
		}
	}
	for name, ms := range rootMS {
		if ms > 0 {
			sum.coverage[name] = rootChildMS[name] / ms
		}
	}
	return sum
}

func (s summary) table() []layerRow {
	var rows []layerRow
	for name, st := range s.byName {
		selfs := append([]float64(nil), st.selfs...)
		sort.Float64s(selfs)
		rows = append(rows, layerRow{Name: name, Count: len(selfs),
			MedianSelf: median(selfs), P90Self: percentile(selfs, 90)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// medianDur is the median duration of spans named name, times scale.
func (s summary) medianDur(name string, scale float64) (float64, bool) {
	st := s.byName[name]
	if st == nil {
		return 0, false
	}
	return median(st.durs) * scale, true
}

// medianCount is the median of one count over spans named name.
func (s summary) medianCount(name, key string) (float64, bool) {
	return s.medianOf(name, func(_ float64, c map[string]float64) (float64, bool) {
		v, ok := c[key]
		return v, ok
	})
}

// ratio is the median over spans named name of counts[num]/counts[den].
func (s summary) ratio(name, num, den string) (float64, bool) {
	return s.medianOf(name, func(_ float64, c map[string]float64) (float64, bool) {
		if d := c[den]; d > 0 {
			return c[num] / d, true
		}
		return 0, false
	})
}

func (s summary) medianOf(name string, f func(ms float64, c map[string]float64) (float64, bool)) (float64, bool) {
	st := s.byName[name]
	if st == nil {
		return 0, false
	}
	var vs []float64
	for i, c := range st.counts {
		if v, ok := f(st.durs[i], c); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, false
	}
	return median(vs), true
}

// layers derives the per-layer metrics from the spans. A metric whose
// layer the run never crossed is left out.
func (s summary) layers() map[string]float64 {
	out := map[string]float64{}
	put := func(name string, v float64, ok bool) {
		if ok && !math.IsNaN(v) {
			out[name] = v
		}
	}
	dur := func(metric, spanName string, scale float64) {
		v, ok := s.medianDur(spanName, scale)
		put(metric, v, ok)
	}
	count := func(metric, spanName, key string) {
		v, ok := s.medianCount(spanName, key)
		put(metric, v, ok)
	}
	if st := s.byName["engine.Query"]; st != nil {
		put("engine.overhead_us", median(st.selfs)*1000, true)
	}
	dur("core.select_us", "core.select", 1000)
	count("core.candidates", "core.select", "candidates")
	dur("core.geogreedy_ms", "core.geogreedy", 1)
	if st := s.byName["core.geogreedy"]; st != nil {
		put("core.geogreedy_self_ms", median(st.selfs), true)
	}
	dur("core.storedlist_build_ms", "core.storedlist_build", 1)
	count("core.storedlist_len", "core.storedlist_build", "len")
	dur("core.storedlist_query_us", "core.storedlist_query", 1000)
	dur("core.mrr_geometric_ms", "core.mrr_geometric", 1)
	v, ok := s.medianOf("dd.replay", func(ms float64, c map[string]float64) (float64, bool) {
		if a := c["adds"]; a > 0 {
			return ms * 1000 / a, true
		}
		return 0, false
	})
	put("dd.add_halfspace_us", v, ok)
	count("dd.adds_per_query", "dd.replay", "adds")
	count("dd.vertices_final", "dd.replay", "vertices")
	dur("skyline.kernel_ms", "skyline.kernel", 1)
	count("skyline.size", "skyline.kernel", "size")
	dur("happy.cert_ms", "happy.cert", 1)
	count("happy.size", "happy.cert", "size")
	v, ok = s.ratio("happy.cert", "size", "sky")
	put("happy.keep_ratio", v, ok)
	dur("skyline.epscover_ms", "skyline.epscover", 1)
	v, ok = s.ratio("skyline.epscover", "survivors", "points")
	put("skyline.epscover_keep_ratio", v, ok)
	dur("coreset.build_ms", "coreset.build", 1)
	count("coreset.size", "coreset.build", "size")
	count("coreset.mrr", "coreset.build", "mrr")
	dur("skyline.update_insert_us", "skyline.update_insert", 1000)
	dur("skyline.update_delete_us", "skyline.update_delete", 1000)
	dur("happy.update_us", "happy.update", 1000)
	dur("dataset.insert_us", "dataset.insert", 1000)
	dur("wal.append_us", "wal.append", 1000)
	dur("wal.sync_ms", "wal.sync", 1)
	count("wal.bytes_per_mut", "wal.append", "bytes")
	dur("persist.compact_ms", "persist.compact", 1)
	v, ok = s.ratio("engine.Apply", "written", "payload")
	put("persist.write_amp", v, ok)
	dur("persist.index_save_ms", "persist.index_save", 1)
	count("persist.index_bytes", "persist.index_save", "bytes")
	dur("persist.index_load_ms", "persist.index_load", 1)
	dur("persist.recover_ms", "persist.recover", 1)
	if c, ok := s.coverage["engine.Query"]; ok {
		out["trace.coverage"] = c
	}
	if c, ok := s.coverage["engine.Apply"]; ok {
		out["trace.apply_coverage"] = c
	}
	return out
}
