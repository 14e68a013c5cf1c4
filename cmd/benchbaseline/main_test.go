package main

import "testing"

// TestNearestAncestorIgnoresDate pins the baseline choice of -diff
// latest: the report of the nearest ancestor wins even when a report
// of a revision further back in history was recorded later, and
// reports of revisions outside history are never chosen.
func TestNearestAncestorIgnoresDate(t *testing.T) {
	history := []string{
		"c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3", // HEAD
		"b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2",
		"a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1",
	}
	reports := map[string]report{
		"BENCH_b2b2b2b.json": {Revision: "b2b2b2b", Date: "2026-01-01T00:00:00Z"},
		"BENCH_a1a1a1a.json": {Revision: "a1a1a1a", Date: "2026-01-02T00:00:00Z"},
		"BENCH_f0f0f0f.json": {Revision: "f0f0f0f", Date: "2026-01-03T00:00:00Z"},
		"BENCH_unknown.json": {Revision: "unknown", Date: "2026-01-04T00:00:00Z"},
	}
	got, ok := nearestAncestor(reports, history)
	if !ok || got != "BENCH_b2b2b2b.json" {
		t.Fatalf("nearestAncestor = %q, %v; want the nearest ancestor BENCH_b2b2b2b.json", got, ok)
	}

	delete(reports, "BENCH_b2b2b2b.json")
	if got, ok := nearestAncestor(reports, history); !ok || got != "BENCH_a1a1a1a.json" {
		t.Fatalf("without it, nearestAncestor = %q, %v; want BENCH_a1a1a1a.json", got, ok)
	}

	delete(reports, "BENCH_a1a1a1a.json")
	if got, ok := nearestAncestor(reports, history); ok {
		t.Fatalf("nearestAncestor = %q with no report in history", got)
	}
}
