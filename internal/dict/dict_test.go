package dict

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func randomBitset(rng *rand.Rand, nbits int, density float64) Bitset {
	b := NewBitset(nbits)
	for i := 0; i < nbits; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func TestBitsetCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widths := []int{0, 1, 5, 63, 64, 65, 127, 128, 129, 1000}
	densities := []float64{0, 0.01, 0.1, 0.5, 0.95, 1}
	for _, w := range widths {
		for _, dn := range densities {
			b := randomBitset(rng, w, dn)
			enc := appendBitset(nil, b)
			got, rest, err := decodeBitset(enc, w)
			if err != nil {
				t.Fatalf("width %d density %.2f: %v", w, dn, err)
			}
			if len(rest) != 0 {
				t.Fatalf("width %d density %.2f: %d leftover bytes", w, dn, len(rest))
			}
			if !got.Equal(b) {
				t.Fatalf("width %d density %.2f: round trip lost bits", w, dn)
			}
		}
	}
}

func TestBitsetCodecPicksSmallest(t *testing.T) {
	// A one-hot 1000-bit set must not ship as 125 raw bytes.
	b := NewBitset(1000)
	b.Set(999)
	enc := appendBitset(nil, b)
	if len(enc) >= 125 {
		t.Fatalf("one-hot 1000-bit signature encoded to %d bytes", len(enc))
	}
	// A solid run should beat the sparse listing.
	r := NewBitset(1000)
	for i := 100; i < 900; i++ {
		r.Set(i)
	}
	enc = appendBitset(nil, r)
	if len(enc) > 10 {
		t.Fatalf("single-run signature encoded to %d bytes", len(enc))
	}
}

func TestBitsetOps(t *testing.T) {
	a := NewBitset(130)
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		a.Set(i)
	}
	for _, i := range []int{0, 64, 128} {
		b.Set(i)
	}
	if got := AndCount(a, b); got != 2 {
		t.Fatalf("AndCount = %d, want 2", got)
	}
	if !AndAnyClear(a, b, 64) {
		t.Fatal("AndAnyClear should still see bit 0")
	}
	b.Clear(0)
	if AndAnyClear(a, b, 64) {
		t.Fatal("AndAnyClear should be empty after dropping 64")
	}
	if got := a.Members(); len(got) != 5 || got[0] != 0 || got[4] != 129 {
		t.Fatalf("Members = %v", got)
	}
	if a.Key() == b.Key() {
		t.Fatal("distinct bitsets share a key")
	}
	if !a.Clone().Equal(a) {
		t.Fatal("clone differs")
	}
}

func testDictionary(nPatterns int) *Dictionary {
	d := &Dictionary{Meta: Meta{
		Key:      strings.Repeat("ab", 32),
		Circuit:  "testckt",
		Patterns: nPatterns,
		IDDQ:     true,
	}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		e := Entry{
			Fault: fmt.Sprintf("G%02d/fault", i),
			Out:   randomBitset(rng, nPatterns, 0.08),
			Leak:  randomBitset(rng, nPatterns, 0.02),
		}
		d.Entries = append(d.Entries, e)
	}
	// Two deliberate equivalence pairs and one escape.
	d.Entries[5].Out = d.Entries[4].Out.Clone()
	d.Entries[5].Leak = d.Entries[4].Leak.Clone()
	d.Entries[39].Out = NewBitset(nPatterns)
	d.Entries[39].Leak = NewBitset(nPatterns)
	return d
}

func TestFileRoundTrip(t *testing.T) {
	d := testDictionary(150)
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Entries != len(d.Entries) || got.Meta.Patterns != 150 {
		t.Fatalf("meta mismatch: %+v", got.Meta)
	}
	if got.Meta.Resolution != d.Meta.Resolution {
		t.Fatalf("resolution %+v vs %+v", got.Meta.Resolution, d.Meta.Resolution)
	}
	for i := range d.Entries {
		if got.Entries[i].Fault != d.Entries[i].Fault ||
			!got.Entries[i].Out.Equal(d.Entries[i].Out) ||
			!got.Entries[i].Leak.Equal(d.Entries[i].Leak) ||
			got.Entries[i].Class != d.Entries[i].Class {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
	// Canonical: marshalling the decoded dictionary reproduces the bytes.
	raw2, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	d := testDictionary(90)
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": raw[:len(raw)-5],
		"bitflip":   append(append([]byte{}, raw[:50]...), append([]byte{raw[50] ^ 1}, raw[51:]...)...),
		"badmagic":  append([]byte("NOTADICT"), raw[8:]...),
	}
	for name, corrupt := range cases {
		if _, err := Unmarshal(corrupt); err == nil {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}
}

func TestNormalizeResolution(t *testing.T) {
	d := testDictionary(100)
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := d.Meta.Resolution
	if res.Faults != 40 || res.Detected != 39 {
		t.Fatalf("faults/detected = %d/%d", res.Faults, res.Detected)
	}
	// 40 entries, one duplicated pair → at most 39 classes; the empty
	// signature is its own class.
	if res.Classes != 39 {
		t.Fatalf("classes = %d, want 39", res.Classes)
	}
	if res.UniquelyDiagnosable != 38 {
		t.Fatalf("uniquely diagnosable = %d, want 38", res.UniquelyDiagnosable)
	}
	// The equivalence pair must share a class label.
	a, _ := d.Lookup("G04/fault")
	b, _ := d.Lookup("G05/fault")
	if a.Class != b.Class {
		t.Fatalf("equivalent faults in classes %q and %q", a.Class, b.Class)
	}
	if got := d.Escapes(); len(got) != 1 || got[0] != "G39/fault" {
		t.Fatalf("escapes = %v", got)
	}
}

func TestDiagnoseDeterministicTieBreak(t *testing.T) {
	d := &Dictionary{Meta: Meta{Key: strings.Repeat("cd", 32), Patterns: 64}}
	sig := NewBitset(64)
	sig.Set(3)
	sig.Set(17)
	// Shuffled insert order; equivalent signatures must rank by fault key.
	for _, name := range []string{"zeta/f", "alpha/f", "mid/f"} {
		d.Entries = append(d.Entries, Entry{Fault: name, Out: sig.Clone(), Leak: NewBitset(64)})
	}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	obs := ObservationFrom(64, []int{3, 17}, nil)
	for trial := 0; trial < 5; trial++ {
		got := d.Diagnose(obs, 0)
		if len(got) != 3 {
			t.Fatalf("trial %d: %d candidates", trial, len(got))
		}
		if got[0].Fault != "alpha/f" || got[1].Fault != "mid/f" || got[2].Fault != "zeta/f" {
			t.Fatalf("trial %d: tie-break order %q %q %q", trial, got[0].Fault, got[1].Fault, got[2].Fault)
		}
		if !got[0].Exact || got[0].Score != 1 {
			t.Fatalf("trial %d: exact match scored %v", trial, got[0])
		}
	}
	// topK truncates after the deterministic sort.
	if got := d.Diagnose(obs, 2); len(got) != 2 || got[0].Fault != "alpha/f" {
		t.Fatalf("topK=2 gave %v", got)
	}
	// Disjoint observation: no candidates.
	if got := d.Diagnose(ObservationFrom(64, []int{40}, nil), 0); len(got) != 0 {
		t.Fatalf("disjoint observation matched %v", got)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := testDictionary(120)
	path, size, err := st.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("stat %s: %v (size %d, want %d)", path, err, fi.Size(), size)
	}
	if filepath.Base(path) != d.Meta.Key+ArtifactExt {
		t.Fatalf("artifact stored as %s", path)
	}

	// A fresh store over the same directory — the restart — must serve
	// the artifact from disk alone.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Get(d.Meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Resolution != d.Meta.Resolution || len(got.Entries) != len(d.Entries) {
		t.Fatalf("reloaded dictionary differs: %+v", got.Meta)
	}
	if sz, ok := st2.Stat(d.Meta.Key); !ok || sz != size {
		t.Fatalf("Stat = (%d, %v)", sz, ok)
	}
	keys, err := st2.Keys()
	if err != nil || len(keys) != 1 || keys[0] != d.Meta.Key {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}

// TestStoreCacheBounded: Put and Get keep at most cacheSize
// dictionaries in memory. A Get right after its Put is a memory hit,
// and every Get of an evicted key still returns the stored dictionary,
// re-read from disk.
func TestStoreCacheBounded(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * cacheSize
	put := make([]*Dictionary, n)
	for i := range put {
		d := testDictionary(50 + i)
		d.Meta.Key = fmt.Sprintf("%064x", i+1)
		if _, _, err := st.Put(d); err != nil {
			t.Fatal(err)
		}
		if len(st.recent) > cacheSize {
			t.Fatalf("after %d puts the cache holds %d, bound %d", i+1, len(st.recent), cacheSize)
		}
		if got, err := st.Get(d.Meta.Key); err != nil || got != d {
			t.Fatalf("Get right after Put(%d) missed the cache: %v", i, err)
		}
		put[i] = d
	}
	for round := 0; round < 2; round++ {
		for i, want := range put {
			got, err := st.Get(want.Meta.Key)
			if err != nil {
				t.Fatal(err)
			}
			if got == want {
				t.Fatalf("round %d: Get(%d) returned the evicted Put pointer, not a dictionary read from disk", round, i)
			}
			if got.Meta.Key != want.Meta.Key || got.Meta.Patterns != want.Meta.Patterns || len(got.Entries) != len(want.Entries) {
				t.Fatalf("Get(%d) = %+v, want %+v", i, got.Meta, want.Meta)
			}
			for k := range want.Entries {
				if got.Entries[k].Fault != want.Entries[k].Fault || !got.Entries[k].Out.Equal(want.Entries[k].Out) ||
					!got.Entries[k].Leak.Equal(want.Entries[k].Leak) {
					t.Fatalf("Get(%d): entry %d differs", i, k)
				}
			}
			if len(st.recent) > cacheSize {
				t.Fatalf("cache holds %d, bound %d", len(st.recent), cacheSize)
			}
			// An immediate repeat is a hit: the same dictionary.
			again, err := st.Get(want.Meta.Key)
			if err != nil || again != got {
				t.Fatalf("repeat Get(%d) missed the cache: %v", i, err)
			}
		}
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), // uppercase hex is not canonical
	} {
		if _, err := st.Get(key); err == nil {
			t.Errorf("Get(%q) accepted", key)
		}
		d := testDictionary(10)
		d.Meta.Key = key
		if _, _, err := st.Put(d); err == nil {
			t.Errorf("Put with key %q accepted", key)
		}
	}
}

func TestStoreGetMissing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(strings.Repeat("00", 32)); !os.IsNotExist(err) {
		t.Fatalf("missing artifact: %v", err)
	}
}
