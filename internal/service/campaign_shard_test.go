package service

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

// normalizeReport strips the only fields allowed to differ between a
// sharded and an unsharded run of the same campaign: wall-clock time
// and the dictionary artifact's compressed size (its payload embeds a
// creation timestamp; the signature rows themselves are compared
// separately, bit for bit).
func normalizeReport(t *testing.T, rep *CampaignReport) map[string]interface{} {
	t.Helper()
	cp := *rep
	cp.ElapsedMS = 0
	if cp.Dictionary != nil {
		d := *cp.Dictionary
		d.CompressedBytes = 0
		cp.Dictionary = &d
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runDifferential pins the sharded path bit-identical to the unsharded
// packed single-shot on one request, for every shard count in ks.
func runDifferential(t *testing.T, req CampaignRequest, ks []int) {
	t.Helper()
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)

	baseDict, err := dict.Open(filepath.Join(t.TempDir(), "dict-base"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunCampaignObserved(context.Background(), c, norm, &RunObserver{Dict: baseDict, DictKey: key})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	baseJSON := normalizeReport(t, base)
	baseD, err := baseDict.Get(key)
	if err != nil {
		t.Fatalf("unsharded dictionary: %v", err)
	}

	for _, k := range ks {
		shDict, err := dict.Open(filepath.Join(t.TempDir(), "dict-sharded"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCampaignSharded(context.Background(), c, norm,
			ShardedOptions{Key: key, Shards: k}, &RunObserver{Dict: shDict, DictKey: key})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if gotJSON := normalizeReport(t, got); !reflect.DeepEqual(gotJSON, baseJSON) {
			b1, _ := json.MarshalIndent(baseJSON, "", " ")
			b2, _ := json.MarshalIndent(gotJSON, "", " ")
			t.Fatalf("k=%d: sharded report differs from unsharded\nunsharded: %s\nsharded:   %s", k, b1, b2)
		}
		shD, err := shDict.Get(key)
		if err != nil {
			t.Fatalf("k=%d sharded dictionary: %v", k, err)
		}
		if len(shD.Entries) != len(baseD.Entries) {
			t.Fatalf("k=%d: %d dictionary entries, unsharded has %d", k, len(shD.Entries), len(baseD.Entries))
		}
		for i := range baseD.Entries {
			if !reflect.DeepEqual(shD.Entries[i], baseD.Entries[i]) {
				t.Fatalf("k=%d: dictionary row %d (%s) differs from unsharded run",
					k, i, baseD.Entries[i].Fault)
			}
		}
	}
}

// TestShardedMergeBitIdenticalProperty is the merge-determinism
// property test: K in {1,2,4,8} shards, full fault configuration with
// IDDQ, against the packed single-shot engine.
func TestShardedMergeBitIdenticalProperty(t *testing.T) {
	runDifferential(t, CampaignRequest{
		Benchmark: "mult3",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
		Engine: "packed",
	}, []int{1, 2, 4, 8})
}

// TestShardedMult16Differential pins the mult16 campaign (random
// patterns, packed engine) sharded vs unsharded.
func TestShardedMult16Differential(t *testing.T) {
	if testing.Short() {
		t.Skip("mult16 differential is a long test")
	}
	runDifferential(t, CampaignRequest{
		Benchmark: "mult16",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, IDDQ: true,
		},
		Patterns: 48,
		Engine:   "packed",
	}, []int{4})
}

// TestShardedC432Differential pins the sharded path on the ISCAS-scale
// c432 reconstruction (36 inputs forces the random-pattern path, and
// the priority-chain topology exercises deep fault cones).
func TestShardedC432Differential(t *testing.T) {
	runDifferential(t, CampaignRequest{
		Benchmark: "c432",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
		Patterns: 64,
		Engine:   "packed",
	}, []int{3, 4})
}

// TestShardedStoreReuse pins the result store's caching contract: a
// second run of the same campaign serves every shard from the store,
// and removing one shard artifact re-simulates exactly that shard.
func TestShardedStoreReuse(t *testing.T) {
	req := CampaignRequest{
		Benchmark: "mult3",
		Faults:    FaultConfig{StuckAt: true, Polarity: true, IDDQ: true},
		Engine:    "packed",
	}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	run := func(wantHits int64) *CampaignReport {
		t.Helper()
		var hits atomic.Int64 // OnCacheHit fires on scheduler goroutines
		rep, err := RunCampaignSharded(context.Background(), c, norm, ShardedOptions{
			Key: key, Shards: 4, Store: store,
			OnCacheHit: func(shard.SubJob) { hits.Add(1) },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hits.Load(); got != wantHits {
			t.Fatalf("shard cache hits = %d, want %d", got, wantHits)
		}
		return rep
	}

	first := run(0)
	second := run(4) // every shard served from the store
	if !reflect.DeepEqual(normalizeReport(t, first), normalizeReport(t, second)) {
		t.Fatal("store-served report differs from the simulated one")
	}

	// Partial reuse: drop one shard artifact; only it re-simulates.
	keys, err := store.Keys(resultstore.KindShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("store holds %d shard artifacts, want 4", len(keys))
	}
	if err := store.Delete(resultstore.KindShard, keys[2]); err != nil {
		t.Fatal(err)
	}
	third := run(3)
	if !reflect.DeepEqual(normalizeReport(t, first), normalizeReport(t, third)) {
		t.Fatal("partially reused report differs from the simulated one")
	}
}

// TestShardedRejectsUnkeyedStore guards the store against cross-
// campaign collisions: persistence requires a canonical campaign key.
func TestShardedRejectsUnkeyedStore(t *testing.T) {
	req := CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true}}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaignSharded(context.Background(), c, norm,
		ShardedOptions{Key: "not-a-key", Shards: 2, Store: store}, nil); err == nil {
		t.Fatal("sharded run accepted a store without a canonical key")
	}
}

// TestShardAggCountsFaults: a sharded campaign's aggregate done/total
// count faults whether a shard is still running or has finished, so
// three finished shards of 1000 faults and a fourth at 500 read
// 3500/4000.
func TestShardAggCountsFaults(t *testing.T) {
	const shards, per = 4, 1000
	var last JobProgress
	agg := newShardAgg(&RunObserver{Progress: func(p JobProgress) { last = p }}, shards)
	agg.class("stuck_at", shards*per)
	for i := 0; i < shards-1; i++ {
		dets := make([]shard.Det, per)
		dets[0].Method = "output"
		agg.complete(shard.SubJob{Index: i}, &shard.Result{StuckAt: &shard.ClassResult{Dets: dets}})
	}
	agg.note("stuck_at", shards-1, faultsim.Progress{Stage: "stuck_at", Done: per / 2, Total: per, Detected: 7})
	want := JobProgress{Stage: "stuck_at", Done: 3*per + per/2, Total: shards * per, Detected: 3 + 7,
		Faults: shards * per, Shards: shards, ShardsDone: shards - 1}
	if last != want {
		t.Fatalf("aggregate = %+v, want %+v", last, want)
	}
}
