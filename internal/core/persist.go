package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// ErrBadStoredList is returned when decoding a stored list that is
// corrupt or internally inconsistent.
var ErrBadStoredList = errors.New("core: bad stored list encoding")

// storedListWire is the gob wire format of a StoredList. The format
// is versioned so later releases can evolve it.
type storedListWire struct {
	Version  int
	Dim      int
	NCand    int
	Complete bool
	Order    []int
	MRRAt    []float64
}

const storedListVersion = 1

// wireManifest pins the gob wire layout of every struct this package
// persists (checked by the wireguard analyzer): changing a field
// means rewriting the entry on this line, which is where the version
// bump and the decoder's compat path get reviewed together.
var wireManifest = map[string]string{
	"storedListWire": "v1 Version int; Dim int; NCand int; Complete bool; Order []int; MRRAt []float64",
}

// Save serializes the materialized list. The candidate set itself is
// not stored — the caller must pair the list with the exact
// candidates it was built from (package kregret's Index.Save stores a
// dataset checksum for that purpose).
func (s *StoredList) Save(w io.Writer) error {
	// A persisted list carries every prefix regret.
	if err := s.price(); err != nil {
		return err
	}
	enc := gob.NewEncoder(w)
	return enc.Encode(storedListWire{
		Version:  storedListVersion,
		Dim:      s.dim,
		NCand:    s.nCand,
		Complete: s.complete,
		Order:    s.order,
		MRRAt:    s.mrrAt,
	})
}

// LoadStoredList decodes a list written by Save and validates its
// internal consistency (index ranges, one regret per entry, regret
// non-increasing along the prefix order).
func LoadStoredList(r io.Reader) (*StoredList, error) {
	var wire storedListWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStoredList, err)
	}
	if wire.Version != storedListVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadStoredList, wire.Version, storedListVersion)
	}
	if wire.Dim < 1 || wire.NCand < 1 {
		return nil, fmt.Errorf("%w: dim=%d candidates=%d", ErrBadStoredList, wire.Dim, wire.NCand)
	}
	if len(wire.Order) != len(wire.MRRAt) {
		return nil, fmt.Errorf("%w: %d order entries but %d regrets", ErrBadStoredList, len(wire.Order), len(wire.MRRAt))
	}
	if len(wire.Order) > wire.NCand {
		return nil, fmt.Errorf("%w: list longer (%d) than candidate set (%d)", ErrBadStoredList, len(wire.Order), wire.NCand)
	}
	seen := make(map[int]bool, len(wire.Order))
	for i, idx := range wire.Order {
		if idx < 0 || idx >= wire.NCand {
			return nil, fmt.Errorf("%w: index %d out of range", ErrBadStoredList, idx)
		}
		if seen[idx] {
			return nil, fmt.Errorf("%w: duplicate index %d", ErrBadStoredList, idx)
		}
		seen[idx] = true
		if mrr := wire.MRRAt[i]; mrr < 0 || mrr > 1 {
			return nil, fmt.Errorf("%w: regret %v out of range", ErrBadStoredList, mrr)
		}
	}
	return &StoredList{
		order:    wire.Order,
		mrrAt:    wire.MRRAt,
		dim:      wire.Dim,
		nCand:    wire.NCand,
		complete: wire.Complete,
	}, nil
}
