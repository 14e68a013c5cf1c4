package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func gobEncode(w io.Writer, v any) error { return gob.NewEncoder(w).Encode(v) }

func TestStoredListSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := antiCorrelated(rng, 60, 3)
	list, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := list.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStoredList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != list.Len() || loaded.dim != list.dim {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", loaded.Len(), loaded.dim, list.Len(), list.dim)
	}
	for k := 1; k <= list.Len(); k++ {
		a, err := list.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d: %v vs %v", k, a, b)
		}
		ma, _ := list.MRRFor(k)
		mb, _ := loaded.MRRFor(k)
		if ma != mb {
			t.Fatalf("k=%d: regret %v vs %v", k, ma, mb)
		}
	}
}

func TestLoadStoredListRejectsCorruption(t *testing.T) {
	if _, err := LoadStoredList(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid gob but inconsistent content.
	cases := []storedListWire{
		{Version: 99, Dim: 2, NCand: 3, Order: []int{0}, MRRAt: []float64{0}},
		{Version: storedListVersion, Dim: 0, NCand: 3, Order: []int{0}, MRRAt: []float64{0}},
		{Version: storedListVersion, Dim: 2, NCand: 2, Order: []int{0, 1, 1}, MRRAt: []float64{0, 0, 0}},
		{Version: storedListVersion, Dim: 2, NCand: 3, Order: []int{0, 0}, MRRAt: []float64{0, 0}},
		{Version: storedListVersion, Dim: 2, NCand: 3, Order: []int{5}, MRRAt: []float64{0}},
		{Version: storedListVersion, Dim: 2, NCand: 3, Order: []int{0}, MRRAt: []float64{2}},
		{Version: storedListVersion, Dim: 2, NCand: 3, Order: []int{0, 1}, MRRAt: []float64{0}},
	}
	for i, w := range cases {
		var buf bytes.Buffer
		enc := encodeWire(t, w)
		buf.Write(enc)
		if _, err := LoadStoredList(&buf); err == nil {
			t.Fatalf("case %d accepted: %+v", i, w)
		}
	}
}

func encodeWire(t *testing.T, w storedListWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := &StoredList{order: w.Order, mrrAt: w.MRRAt, dim: w.Dim, nCand: w.NCand}
	_ = s
	// Encode manually to bypass Save's assumptions.
	if err := gobEncode(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
