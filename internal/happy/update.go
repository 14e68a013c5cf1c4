package happy

import (
	"sort"

	"repro/internal/geom"
)

// Incremental happy-set maintenance over the witness certificate.
// The exactness argument (pinned differentially in update_test.go):
//
//   - subjugates is a pure function of the two points' coordinate
//     values, so every decision recorded in the previous certificate
//     — "w subjugates s" and, implicitly for happy points, "no old
//     adversary subjugates s" — stays byte-for-byte valid as long as
//     both points' values survive the mutation.
//   - The from-scratch computation tests each candidate against the
//     NEW skyline. For a previously happy candidate, decisions
//     against adversaries shared with the old skyline are already
//     known (all negative), so only adversaries the mutation ADDED
//     need testing.
//   - A witness that left the new skyline is discarded and the
//     candidate rescanned, even though the witness point may still
//     exist and subjugate it: reusing it would lean on the
//     "dominator inherits subjugation" lemma, which is exact in real
//     arithmetic but not at the eps boundary in floats — the rescan
//     keeps incremental == from-scratch bit-identical rather than
//     merely set-equal in the limit.
//
// Certificates therefore maintain the invariant Wit[i] ∈ Sky ∪ {-1}:
// every witness is a member of the same epoch's skyline.

// scanWitness returns the first member of sky (ascending) subjugating
// row qi of r, or -1 — the scalar rescan used for new and orphaned
// candidates.
func scanWitness(r geom.Rows, sky []int, qi int) int32 {
	q := r.Row(qi)
	for _, pi := range sky {
		if pi == qi {
			continue
		}
		if subjugates(r.Row(pi), q) {
			return int32(pi)
		}
	}
	return -1
}

// witnessOf looks up the previous certificate's witness for original
// index s. prev.Sky is ascending, so this is a binary search.
func witnessOf(prev *Cert, s int) (int32, bool) {
	i := sort.SearchInts(prev.Sky, s)
	if i < len(prev.Sky) && prev.Sky[i] == s {
		return prev.Wit[i], true
	}
	return 0, false
}

// UpdateInsert is UpdateInsertRows over pts flattened into rows.
func UpdateInsert(pts []geom.Vector, prev *Cert, skyNew, removed []int, inserted bool) *Cert {
	return UpdateInsertRows(geom.Flatten(pts), prev, skyNew, removed, inserted)
}

// UpdateInsertRows patches certificate prev — computed over the
// pre-insert skyline — after appending a point at index r.Len()-1.
// skyNew, removed, and inserted are skyline.UpdateInsertRows' outputs
// for the same mutation. When the new point did not join the skyline
// the adversary and candidate sets are unchanged and prev is returned
// AS-IS (shared) — the O(1) fast path.
func UpdateInsertRows(r geom.Rows, prev *Cert, skyNew, removed []int, inserted bool) *Cert {
	if !inserted {
		return prev
	}
	newIdx := r.Len() - 1
	removedSet := make(map[int]bool, len(removed))
	for _, r := range removed {
		removedSet[r] = true
	}
	wit := make([]int32, len(skyNew))
	for i, s := range skyNew {
		if s == newIdx {
			wit[i] = scanWitness(r, skyNew, s)
			continue
		}
		w, ok := witnessOf(prev, s)
		switch {
		case !ok:
			// Unreachable for consistent inputs (skyNew − {newIdx} ⊆
			// prev.Sky); rescan rather than corrupt the certificate.
			wit[i] = scanWitness(r, skyNew, s)
		case w == -1:
			// Was happy: no old adversary subjugates it, and removal
			// only shrinks the adversary set — test the one addition.
			if subjugates(r.Row(newIdx), r.Row(s)) {
				wit[i] = int32(newIdx)
			} else {
				wit[i] = -1
			}
		case removedSet[int(w)]:
			// Witness left the skyline: rescan (see package comment).
			wit[i] = scanWitness(r, skyNew, s)
		default:
			wit[i] = w
		}
	}
	return &Cert{Sky: skyNew, Wit: wit}
}

// UpdateDelete is UpdateDeleteRows over pts flattened into rows.
func UpdateDelete(pts []geom.Vector, prev *Cert, delIdx int, skyNew, entrants []int, wasSky bool) *Cert {
	return UpdateDeleteRows(geom.Flatten(pts), prev, delIdx, skyNew, entrants, wasSky)
}

// UpdateDeleteRows patches certificate prev after deleting oldIdx
// delIdx under the shift-down convention. skyNew, entrants, and wasSky
// are skyline.UpdateDeleteRows' outputs for the same mutation
// (post-delete indices). r is the post-delete point set.
func UpdateDeleteRows(r geom.Rows, prev *Cert, delIdx int, skyNew, entrants []int, wasSky bool) *Cert {
	unshift := func(s int) int {
		// Post-delete index back to the pre-delete index prev knows.
		if s >= delIdx {
			return s + 1
		}
		return s
	}
	entrantSet := make(map[int]bool, len(entrants))
	for _, e := range entrants {
		entrantSet[e] = true
	}
	wit := make([]int32, len(skyNew))
	for i, s := range skyNew {
		if entrantSet[s] {
			wit[i] = scanWitness(r, skyNew, s)
			continue
		}
		w, ok := witnessOf(prev, unshift(s))
		switch {
		case !ok:
			wit[i] = scanWitness(r, skyNew, s) // unreachable backstop, as in UpdateInsert
		case w == -1:
			// Was happy: only the entrants are new adversaries.
			wit[i] = -1
			for _, e := range entrants {
				if subjugates(r.Row(e), r.Row(s)) {
					wit[i] = int32(e)
					break
				}
			}
		case int(w) == delIdx:
			// Witness was deleted: rescan against the new skyline.
			wit[i] = scanWitness(r, skyNew, s)
		default:
			// Witness survives (a non-deleted skyline member stays in
			// the skyline when points are only removed); shift it.
			if int(w) > delIdx {
				wit[i] = w - 1
			} else {
				wit[i] = w
			}
		}
	}
	return &Cert{Sky: skyNew, Wit: wit}
}
