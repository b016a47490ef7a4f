package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/service"
	"cpsinw/internal/shard"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent names the phase that caused them ("window" for the workload's
// own HTTP calls, "replay" for the in-process layer calls).
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	Dur    int64  `json:"dur_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0     time.Time
	parent string
	mu     sync.Mutex
	spans  []span
}

func newRecorder(parent string) *recorder { return &recorder{t0: time.Now(), parent: parent} }

// add records [start, now) under name.
func (r *recorder) add(op int64, name string, start time.Time) {
	if r != nil {
		r.addDur(op, name, time.Since(start))
	}
}

// addDur records a span of known duration ending now.
func (r *recorder) addDur(op int64, name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: r.parent, Start: int64(time.Since(r.t0) - d), Dur: int64(d)})
	r.mu.Unlock()
}

// median is the median duration in seconds of the spans named name.
func (r *recorder) median(name string) (float64, bool) {
	var ds []float64
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.Dur).Seconds())
		}
	}
	if len(ds) == 0 {
		return 0, false
	}
	return quantile(ds, 0.5), true
}

// layerSpans are the per-layer time metrics, each the median of the
// spans of that name (metric name = span name + "_s").
var layerSpans = []string{
	"service.submit_http", "service.diagnose_http", "service.wait_done", "service.durable_lag",
	"service.queue_wait", "service.normalize", "service.canonical_key",
	"service.single_campaign", "service.sharded_campaign",
	"logic.parse", "bench.get",
	"faultsim.stuck_at", "faultsim.transistor", "faultsim.transistor_iddq", "faultsim.bridges",
	"faultsim.stuck_at_capture", "faultsim.transistor_iddq_capture",
	"shard.merge",
	"dict.marshal", "dict.put", "dict.get_cold", "dict.diagnose",
	"resultstore.report_put", "resultstore.shard_put", "resultstore.report_get",
	"atpg.generate",
}

// counts measures the exact per-op counters over countOps sequential
// ops: /metrics deltas and the bytes the result store gained. A single
// client on a fixed request sequence makes them repeat run to run.
func (b *runner) counts(ctx context.Context) (map[string]float64, error) {
	before, err := scrapeMetrics(ctx, b.client, b.srv.base)
	if err != nil {
		return nil, err
	}
	bytes0 := b.storedBytes()
	for k := 0; k < countOps; k++ {
		if _, err := b.op(ctx, phaseCount+int64(k), nil); err != nil {
			return nil, fmt.Errorf("count phase op %d: %w", k, err)
		}
	}
	after, err := scrapeMetrics(ctx, b.client, b.srv.base)
	if err != nil {
		return nil, err
	}
	n := float64(countOps)
	delta := func(name string) float64 { return after[name] - before[name] }
	return map[string]float64{
		"faultsim.gate_evals_per_op": delta(`cpsinw_faultsim_gate_evals_total{engine="packed"}`) / n,
		"shard.subjobs_per_op":       delta("cpsinw_shard_scheduled_total") / n,
		"dict.bytes_per_op":          delta("cpsinw_dict_bytes_total") / n,
		"resultstore.bytes_per_op":   float64(b.storedBytes()-bytes0) / n,
	}, nil
}

// storedBytes sums the report and shard artifacts in the server's
// result store (pending markers come and go, so they are left out).
func (b *runner) storedBytes() int64 {
	if b.storeDir == "" {
		return 0
	}
	var n int64
	for _, kind := range []resultstore.Kind{resultstore.KindReport, resultstore.KindShard} {
		_ = filepath.WalkDir(filepath.Join(b.storeDir, "results", string(kind)), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if fi, err := d.Info(); err == nil {
					n += fi.Size()
				}
			}
			return nil
		})
	}
	return n
}

// packedSim is a compiled packed-engine simulator for c.
func packedSim(c *logic.Circuit) *faultsim.Simulator {
	sim := faultsim.New(c)
	sim.Engine = faultsim.EnginePacked
	sim.EnsureCompiled()
	return sim
}

// detected re-derives the detected count of every class cfg enables
// with direct packed faultsim calls on service.BuildPatterns, recording
// one span per sweep.
func detected(ctx context.Context, req service.CampaignRequest, cfg service.FaultConfig, rec *recorder, op int64) (map[string]int, error) {
	norm, c, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	pats := service.BuildPatterns(c, norm.Patterns, norm.Seed)
	sim := packedSim(c)
	out := map[string]int{}
	if cfg.StuckAt {
		t := time.Now()
		ds, err := sim.RunStuckAtContext(ctx, core.Universe(c, core.ClassicalOnly()), pats)
		if err != nil {
			return nil, err
		}
		rec.add(op, "faultsim.stuck_at", t)
		out["stuck_at"] = faultsim.Summarise(ds).Detected
	}
	if cfg.Polarity || cfg.StuckOpen || cfg.StuckOn {
		tr := core.Universe(c, core.UniverseOptions{ChannelBreak: cfg.StuckOpen, StuckOn: cfg.StuckOn, Polarity: cfg.Polarity})
		t := time.Now()
		ds, err := sim.RunTransistorParallel(ctx, tr, pats, false, 0)
		if err != nil {
			return nil, err
		}
		rec.add(op, "faultsim.transistor", t)
		out["transistor"] = faultsim.Summarise(ds).Detected
		if cfg.IDDQ {
			t := time.Now()
			ds, err := sim.RunTransistorParallel(ctx, tr, pats, true, 0)
			if err != nil {
				return nil, err
			}
			rec.add(op, "faultsim.transistor_iddq", t)
			out["transistor_iddq"] = faultsim.Summarise(ds).Detected
		}
	}
	if cfg.Bridges {
		t := time.Now()
		ds, err := sim.RunBridgesObserved(ctx, core.NeighborBridges(c, 2), pats, cfg.IDDQ)
		if err != nil {
			return nil, err
		}
		rec.add(op, "faultsim.bridges", t)
		out["bridges"] = faultsim.BridgeCoverage(ds).Detected
	}
	return out, nil
}

// verify re-derives the detected counts of a served op and compares.
func verify(ctx context.Context, res opResult) error {
	want, err := detected(ctx, res.req, res.req.Faults, nil, 0)
	if err != nil {
		return err
	}
	for class, cov := range coverages(res.rep) {
		if cov.Detected != want[class] {
			return fmt.Errorf("seed %d: served %s detected %d, direct packed faultsim gives %d",
				res.req.Seed, class, cov.Detected, want[class])
		}
	}
	return nil
}

// replay runs one sampled op in-process through every layer's public
// calls, one span per call. Every fault class is swept on the op's
// circuit and patterns, so each faultsim metric exists on every workload.
func replay(ctx context.Context, req service.CampaignRequest, c432Text, tmp string, rec *recorder, op int64) error {
	t := time.Now()
	norm, c, err := req.Normalize()
	if err != nil {
		return err
	}
	rec.add(op, "service.normalize", t)
	t = time.Now()
	key := service.CanonicalKey(c, norm)
	rec.add(op, "service.canonical_key", t)

	if _, err := detected(ctx, req, allFaults, rec, op); err != nil {
		return err
	}
	pats := service.BuildPatterns(c, norm.Patterns, norm.Seed)
	sim := packedSim(c)
	sa := core.Universe(c, core.ClassicalOnly())
	sim.Signatures = faultsim.NewSignatureCapture(len(sa), len(pats))
	t = time.Now()
	if _, err := sim.RunStuckAtContext(ctx, sa, pats); err != nil {
		return err
	}
	rec.add(op, "faultsim.stuck_at_capture", t)
	tr := core.Universe(c, core.UniverseOptions{ChannelBreak: true, StuckOn: true, Polarity: true})
	sim.Signatures = faultsim.NewSignatureCapture(len(tr), len(pats))
	t = time.Now()
	if _, err := sim.RunTransistorParallel(ctx, tr, pats, true, 0); err != nil {
		return err
	}
	rec.add(op, "faultsim.transistor_iddq_capture", t)

	sub := func(name string) string { return filepath.Join(tmp, fmt.Sprintf("%s-%d", name, op)) }
	t = time.Now()
	if _, err := service.RunCampaignObserved(ctx, c, norm, nil); err != nil {
		return err
	}
	rec.add(op, "service.single_campaign", t)
	dsSingle, err := dict.Open(sub("dict-single"))
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := service.RunCampaignObserved(ctx, c, norm, &service.RunObserver{Dict: dsSingle, DictKey: key}); err != nil {
		return err
	}
	rec.add(op, "service.single_campaign_dict", t)

	rs, err := resultstore.Open(sub("results"))
	if err != nil {
		return err
	}
	ds, err := dict.Open(sub("dicts"))
	if err != nil {
		return err
	}
	t = time.Now()
	rep, err := service.RunCampaignSharded(ctx, c, norm, service.ShardedOptions{Key: key, Store: rs}, &service.RunObserver{Dict: ds, DictKey: key})
	if err != nil {
		return err
	}
	rec.add(op, "service.sharded_campaign", t)
	if err := mergeStored(c, norm, key, len(pats), rs, sub("results-copy"), rec, op); err != nil {
		return err
	}

	d, err := ds.Get(key)
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := d.Marshal(); err != nil {
		return err
	}
	rec.add(op, "dict.marshal", t)
	dsPut, err := dict.Open(sub("dicts-copy"))
	if err != nil {
		return err
	}
	t = time.Now()
	if _, _, err := dsPut.Put(d); err != nil {
		return err
	}
	rec.add(op, "dict.put", t)
	dsCold, err := dict.Open(dsPut.Dir())
	if err != nil {
		return err
	}
	t = time.Now()
	dc, err := dsCold.Get(key)
	if err != nil {
		return err
	}
	rec.add(op, "dict.get_cold", t)
	q, ok := observation(dc, key)
	if !ok {
		return errors.New("replayed dictionary detects nothing")
	}
	o := dict.ObservationFrom(dc.Meta.Patterns, q.FailingPatterns, q.LeakingPatterns)
	t = time.Now()
	cands := dc.Diagnose(o, 5)
	rec.add(op, "dict.diagnose", t)
	if len(cands) == 0 || cands[0].Score != 1 {
		return fmt.Errorf("in-process diagnosis top candidate is not exact: %+v", cands)
	}

	rsPut, err := resultstore.Open(sub("reports"))
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := rsPut.Put(resultstore.KindReport, key, rep); err != nil {
		return err
	}
	rec.add(op, "resultstore.report_put", t)
	rsCold, err := resultstore.Open(rsPut.Dir())
	if err != nil {
		return err
	}
	var back service.CampaignReport
	t = time.Now()
	if err := rsCold.Get(resultstore.KindReport, key, &back); err != nil {
		return err
	}
	rec.add(op, "resultstore.report_get", t)
	if !sameCoverage(rep, &back) {
		return errors.New("result store returned a different report")
	}

	t = time.Now()
	if _, err := logic.ParseBench("c432", strings.NewReader(c432Text)); err != nil {
		return err
	}
	rec.add(op, "logic.parse", t)
	t = time.Now()
	if _, err := bench.Get("mult16"); err != nil {
		return err
	}
	rec.add(op, "bench.get", t)
	return nil
}

// mergeStored loads the shard artifacts a sharded campaign stored,
// times the merge of every class from them, and times re-storing each
// artifact into a second store.
func mergeStored(c *logic.Circuit, req service.CampaignRequest, key string, nPats int, rs *resultstore.Store, copyDir string, rec *recorder, op int64) error {
	f := req.Faults
	var sa, tr []core.Fault
	var br []core.Bridge
	if f.StuckAt {
		sa = core.Universe(c, core.ClassicalOnly())
	}
	if f.Polarity || f.StuckOpen || f.StuckOn {
		tr = core.Universe(c, core.UniverseOptions{ChannelBreak: f.StuckOpen, StuckOn: f.StuckOn, Polarity: f.Polarity})
	}
	if f.Bridges {
		br = core.NeighborBridges(c, f.BridgeWindow)
	}
	plan := shard.NewPlan(key, shard.AutoShards(len(c.Gates), len(sa)+len(tr)+len(br)), len(sa), len(tr), len(br), true)
	results := make([]*shard.Result, len(plan.Jobs))
	for i, j := range plan.Jobs {
		results[i] = new(shard.Result)
		if err := rs.Get(resultstore.KindShard, j.Key, results[i]); err != nil {
			return fmt.Errorf("stored shard %d/%d: %w", i, plan.Total, err)
		}
	}
	parts := func(pick func(*shard.Result) *shard.ClassResult) []*shard.ClassResult {
		out := make([]*shard.ClassResult, len(results))
		for i, r := range results {
			out[i] = pick(r)
		}
		return out
	}
	t := time.Now()
	if sa != nil {
		p := parts(func(r *shard.Result) *shard.ClassResult { return r.StuckAt })
		if _, err := shard.MergeDetections(sa, p); err != nil {
			return err
		}
		if _, err := shard.MergeSignatures(len(sa), nPats, p, false); err != nil {
			return err
		}
	}
	if tr != nil {
		p := parts(func(r *shard.Result) *shard.ClassResult { return r.TransistorV })
		if _, err := shard.MergeDetections(tr, p); err != nil {
			return err
		}
		sig := p
		if f.IDDQ {
			sig = parts(func(r *shard.Result) *shard.ClassResult { return r.TransistorIQ })
			if _, err := shard.MergeDetections(tr, sig); err != nil {
				return err
			}
		}
		if _, err := shard.MergeSignatures(len(tr), nPats, sig, f.IDDQ); err != nil {
			return err
		}
	}
	if br != nil {
		if _, err := shard.MergeBridgeDetections(br, parts(func(r *shard.Result) *shard.ClassResult { return r.Bridges })); err != nil {
			return err
		}
	}
	rec.add(op, "shard.merge", t)

	cp, err := resultstore.Open(copyDir)
	if err != nil {
		return err
	}
	for i, j := range plan.Jobs {
		t := time.Now()
		if _, err := cp.Put(resultstore.KindShard, j.Key, results[i]); err != nil {
			return err
		}
		rec.add(op, "resultstore.shard_put", t)
	}
	return nil
}

// httpReplay runs the sampled ops through an in-process durable
// service with a dictionary store, so every HTTP-level span (durable
// lag, queue wait, diagnose) has samples on every workload. The
// workload's own window supplies these spans wherever it has them.
// It then restarts the service on the same stores and resubmits every
// op twice: the first answer must come from the result store, the
// second from the LRU that answer warmed. It returns the LRU's share
// of those answers (/metrics cache hits vs result-store report hits).
func (b *runner) httpReplay(ctx context.Context, reqs []service.CampaignRequest, tmp string, rec *recorder, op0 int64) (float64, error) {
	cfg := service.ManagerConfig{
		ResultDir: filepath.Join(tmp, "http-results"),
		DictDir:   filepath.Join(tmp, "http-dicts"),
	}
	rs, err := resultstore.Open(cfg.ResultDir)
	if err != nil {
		return 0, err
	}
	ds, err := dict.Open(cfg.DictDir)
	if err != nil {
		return 0, err
	}
	served := make([]*service.CampaignReport, len(reqs))
	err = serve(cfg, func(base string) error {
		for k, req := range reqs {
			op := op0 + int64(k)
			res, err := campaign(ctx, b.client, base, rs, req, rec, op)
			if err != nil {
				return err
			}
			served[k] = res.rep
			d, err := ds.Get(res.key)
			if err != nil {
				return err
			}
			q, ok := observation(d, res.key)
			if !ok {
				return errors.New("replayed dictionary detects nothing")
			}
			if err := diagnose(ctx, b.client, base, q, rec, op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	var ratio float64
	err = serve(cfg, func(base string) error {
		before, err := scrapeMetrics(ctx, b.client, base)
		if err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ {
			for k, req := range reqs {
				res, err := campaign(ctx, b.client, base, nil, req, nil, 0)
				if err != nil {
					return err
				}
				if !res.cacheHit || !sameCoverage(res.rep, served[k]) {
					return fmt.Errorf("resubmission %d after restart: cache hit %v, or its report differs from the served one", k, res.cacheHit)
				}
			}
		}
		after, err := scrapeMetrics(ctx, b.client, base)
		if err != nil {
			return err
		}
		lru := after["cpsinw_cache_hits_total"] - before["cpsinw_cache_hits_total"]
		disk := after["cpsinw_resultstore_report_hits_total"] - before["cpsinw_resultstore_report_hits_total"]
		if lru+disk == 0 {
			return errors.New("no resubmission was answered from the LRU or the result store")
		}
		ratio = lru / (lru + disk)
		return nil
	})
	return ratio, err
}

// serve runs f against an in-process service on a loopback test
// server, then shuts both down.
func serve(cfg service.ManagerConfig, f func(base string) error) error {
	srv := service.NewServer(cfg)
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	return f(hs.URL)
}

// atpgReplay times test generation on c432 for stuck_at, polarity and
// stuck_open faults. No gated workload runs ATPG end to end (README.md
// says why), so this is where the atpg layer is measured.
func atpgReplay(ctx context.Context, rec *recorder) (int, error) {
	c, err := bench.Get("c432")
	if err != nil {
		return 0, err
	}
	universe := core.Universe(c, core.UniverseOptions{LineStuckAt: true, Polarity: true, ChannelBreak: true})
	t := time.Now()
	res, err := atpg.GenerateContext(ctx, c, universe, atpg.Options{Engine: faultsim.EnginePacked})
	if err != nil {
		return 0, err
	}
	rec.add(0, "atpg.generate", t)
	return res.Set.TotalVectors(), nil
}

// writeSpans saves both recorders' spans as one JSON array.
func writeSpans(path string, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	raw, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
