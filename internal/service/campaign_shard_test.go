package service

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

// normalizeReport strips the only fields allowed to differ between two
// runs of the same campaign: wall-clock time and the dictionary
// artifact's compressed size (its payload embeds a creation timestamp).
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

// directCampaign is the shard differential's oracle: every requested
// fault class swept once over its full universe straight through
// faultsim — no shard plan, no record encoding, no merge — with
// signature capture on. It returns the coverage blocks a campaign of the
// request must report and the dictionary rows it must store.
func directCampaign(t *testing.T, c *logic.Circuit, req CampaignRequest) (*CampaignReport, []dict.Entry) {
	t.Helper()
	ctx := context.Background()
	engine, err := faultsim.ParseEngine(req.Engine)
	if err != nil {
		t.Fatal(err)
	}
	pats := BuildPatterns(c, req.Patterns, req.Seed)
	sim := faultsim.New(c)
	sim.Engine = engine
	want := &CampaignReport{Patterns: len(pats)}
	var rows []dict.Entry
	addRows := func(faults []core.Fault, capture *faultsim.SignatureCapture, leak bool) {
		for i, f := range faults {
			e := dict.Entry{Fault: f.String(), Out: dict.FromWords(len(pats), capture.Out(i)), Leak: dict.NewBitset(len(pats))}
			if leak {
				e.Leak = dict.FromWords(len(pats), capture.Leak(i))
			}
			rows = append(rows, e)
		}
	}

	if req.Faults.StuckAt {
		faults := core.Universe(c, core.ClassicalOnly())
		capture := faultsim.NewSignatureCapture(len(faults), len(pats))
		sim.Signatures = capture
		ds, err := sim.RunStuckAtContext(ctx, faults, pats)
		sim.Signatures = nil
		if err != nil {
			t.Fatal(err)
		}
		want.StuckAt = coverageJSON(faultsim.Summarise(ds))
		addRows(faults, capture, false)
	}
	uopt := core.UniverseOptions{ChannelBreak: req.Faults.StuckOpen, StuckOn: req.Faults.StuckOn, Polarity: req.Faults.Polarity}
	if uopt.ChannelBreak || uopt.StuckOn || uopt.Polarity {
		faults := core.Universe(c, uopt)
		sweep := func(iddq bool) (*CoverageJSON, *faultsim.SignatureCapture) {
			capture := faultsim.NewSignatureCapture(len(faults), len(pats))
			sim.Signatures = capture
			ds, err := sim.RunTransistorParallel(ctx, faults, pats, iddq, 1)
			sim.Signatures = nil
			if err != nil {
				t.Fatal(err)
			}
			return coverageJSON(faultsim.Summarise(ds)), capture
		}
		var capture *faultsim.SignatureCapture
		want.Transistor, capture = sweep(false)
		if req.Faults.IDDQ {
			want.TransistorIDDQ, capture = sweep(true)
		}
		addRows(faults, capture, req.Faults.IDDQ)
	}
	if req.Faults.Bridges {
		ds, err := sim.RunBridgesObserved(ctx, core.NeighborBridges(c, req.Faults.BridgeWindow), pats, req.Faults.IDDQ)
		if err != nil {
			t.Fatal(err)
		}
		want.Bridges = coverageJSON(faultsim.BridgeCoverage(ds))
	}
	return want, rows
}

// runDifferential pins the campaign path against directCampaign on one
// request, for every shard count in ks: each class's coverage block and
// every dictionary row must match the direct sweeps.
func runDifferential(t *testing.T, req CampaignRequest, ks []int) {
	t.Helper()
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)
	want, wantRows := directCampaign(t, c, norm)

	for _, k := range ks {
		store, err := dict.Open(filepath.Join(t.TempDir(), "dict"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCampaignSharded(context.Background(), c, norm,
			ShardedOptions{Key: key, Shards: k}, &RunObserver{Dict: store, DictKey: key})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Patterns != want.Patterns {
			t.Fatalf("k=%d: %d patterns, direct sweeps ran %d", k, got.Patterns, want.Patterns)
		}
		for _, cls := range []struct {
			name      string
			got, want *CoverageJSON
		}{
			{"stuck_at", got.StuckAt, want.StuckAt},
			{"transistor", got.Transistor, want.Transistor},
			{"transistor_iddq", got.TransistorIDDQ, want.TransistorIDDQ},
			{"bridges", got.Bridges, want.Bridges},
		} {
			if !reflect.DeepEqual(cls.got, cls.want) {
				t.Fatalf("k=%d: %s coverage differs from the direct sweep\ncampaign: %+v\ndirect:   %+v",
					k, cls.name, cls.got, cls.want)
			}
		}
		d, err := store.Get(key)
		if err != nil {
			t.Fatalf("k=%d dictionary: %v", k, err)
		}
		if len(d.Entries) != len(wantRows) {
			t.Fatalf("k=%d: %d dictionary entries, direct sweeps give %d", k, len(d.Entries), len(wantRows))
		}
		for _, w := range wantRows {
			e, ok := d.Lookup(w.Fault)
			if !ok {
				t.Fatalf("k=%d: dictionary has no row for %s", k, w.Fault)
			}
			if !e.Out.Equal(w.Out) || !e.Leak.Equal(w.Leak) {
				t.Fatalf("k=%d: dictionary row %s differs from the direct sweep", k, w.Fault)
			}
		}
	}
}

// TestShardedMergeBitIdenticalProperty is the merge-determinism
// property test: K in {1,2,4,8} shards, full fault configuration with
// IDDQ, against direct packed-engine sweeps.
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

// TestShardedReferenceEngineDifferential is the same property on the
// reference oracle engine, whose simulators never compile the circuit.
// The switch-level oracle is slow, so the row keeps to the fault classes
// it sweeps fastest; the packed rows cover the leak plane.
func TestShardedReferenceEngineDifferential(t *testing.T) {
	runDifferential(t, CampaignRequest{
		Benchmark: "mult3",
		Faults:    FaultConfig{StuckAt: true, StuckOn: true},
		Engine:    "reference",
	}, []int{1, 4})
}

// TestShardedMult16Differential pins the mult16 campaign (random
// patterns, packed engine) against the direct sweeps.
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

// TestShardedC432Differential pins the campaign path on the ISCAS-scale
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
