//go:build kregretfault

package kregret

// The second half of the crash-point sweep: instead of truncating the
// log after the fact, every durability fault site (wal.append,
// wal.sync, wal.rotate, persist.sync) is armed at every one of its
// execution points in the mutation script — the Observe/ArmAfter
// sweep. Whatever the failure does (torn tail, rewound suffix, failed
// compaction, failed snapshot fsync), the invariant is single:
// recovering from the on-disk pair reproduces exactly the mutations
// the run acknowledged, bit for bit, and nothing else.

import (
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// runFaultedScript executes the crash script over a fresh WAL-backed
// dataset in dir, tolerating mutation and compaction failures (the
// armed site causes some), and returns the live dataset — whose
// in-memory state is by construction exactly the acknowledged
// history. A nil dataset means construction itself failed (the armed
// site hit the base-snapshot write inside NewDataset).
func runFaultedScript(t *testing.T, dir string) *Dataset {
	t.Helper()
	ds, err := NewDataset([]Point{
		{1.0, 0.1}, {0.1, 1.0}, {0.8, 0.8}, {0.5, 0.5}, {0.3, 0.9}, {0.9, 0.3},
	}, WithoutNormalization(), WithWAL(filepath.Join(dir, "crash.wal"), filepath.Join(dir, "crash.snap")))
	if err != nil {
		return nil
	}
	for i, op := range crashScript() {
		if op.pt != nil {
			//kregret:allow errdrop: injected durability failures are the point — unacknowledged mutations are verified absent after recovery
			ds.Insert(op.pt)
		} else {
			//kregret:allow errdrop: injected durability failures are the point — unacknowledged mutations are verified absent after recovery
			ds.Delete(op.del)
		}
		if i == 3 {
			// Mid-script compaction: the wal.rotate and persist.sync
			// execution points live here (and Reset also heals a log a
			// torn append broke, so the script regains write access).
			//kregret:allow errdrop: a failed compaction leaves the previous pair intact; recovery verifies it
			ds.Compact()
		}
	}
	return ds
}

// TestCrashFaultSiteSweep arms each durability site at every one of
// its execution points in the script and proves recovery equals the
// acknowledged in-memory state for all of them.
func TestCrashFaultSiteSweep(t *testing.T) {
	sites := []string{
		fault.SiteWALAppend,
		fault.SiteWALSync,
		fault.SiteWALRotate,
		fault.SitePersistSync,
	}
	for _, site := range sites {
		site := site
		t.Run(site, func(t *testing.T) {
			// Reconnaissance: count the site's executions in a clean run.
			fault.Reset()
			t.Cleanup(fault.Reset)
			fault.Observe(site)
			clean := runFaultedScript(t, t.TempDir())
			if clean == nil {
				t.Fatal("clean run failed to build its dataset")
			}
			total := fault.Fired(site)
			if total == 0 {
				t.Fatalf("site %s never executes in the script — the sweep would prove nothing", site)
			}
			if err := clean.Close(); err != nil {
				t.Fatal(err)
			}

			for shot := 0; shot < total; shot++ {
				fault.Reset()
				fault.ArmAfter(site, shot, 1)
				dir := t.TempDir()
				ds := runFaultedScript(t, dir)
				if fault.Fired(site) == 0 {
					t.Fatalf("shot %d/%d never fired", shot, total)
				}
				if ds == nil {
					// The injection hit the base-snapshot write inside
					// NewDataset: nothing was ever acknowledged, and
					// the failed save must have left no snapshot.
					if _, _, _, err := loadDatasetFile(filepath.Join(dir, "crash.snap")); err == nil {
						t.Fatalf("shot %d: failed construction left a loadable snapshot", shot)
					}
					continue
				}
				// Crash here: no Close, recover straight from disk.
				fault.Reset() // recovery itself runs on healthy hardware
				rec, err := Recover(filepath.Join(dir, "crash.snap"), filepath.Join(dir, "crash.wal"))
				if err != nil {
					t.Fatalf("shot %d/%d: recovery failed: %v", shot, total, err)
				}
				if rec.Seq() != ds.Seq() {
					t.Fatalf("shot %d/%d: recovered seq %d, acknowledged %d", shot, total, rec.Seq(), ds.Seq())
				}
				if !sameBits(datasetBits(t, rec), datasetBits(t, ds)) {
					t.Fatalf("shot %d/%d: recovered state differs from acknowledged state", shot, total)
				}
				recAns, err := rec.Query(2)
				if err != nil {
					t.Fatalf("shot %d/%d: recovered query: %v", shot, total, err)
				}
				liveAns, err := ds.Query(2)
				if err != nil {
					t.Fatalf("shot %d/%d: live query: %v", shot, total, err)
				}
				sameAnswerBits(t, recAns, liveAns)
				if err := rec.Close(); err != nil {
					t.Fatalf("shot %d/%d: closing recovered: %v", shot, total, err)
				}
				//kregret:allow errdrop: the live log may be mid-failure by design; its close error is not the invariant
				ds.Close()
			}
		})
	}
}
