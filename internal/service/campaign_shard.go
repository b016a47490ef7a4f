package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cpsinw/internal/atpg"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

// ShardedOptions configures one sharded campaign execution.
type ShardedOptions struct {
	// Key is the campaign's content address (CanonicalKey over the
	// normalized request); sub-job keys derive from it. Required when
	// Store is set, so cached shards can never cross campaigns.
	Key string
	// Shards is the requested sub-job count; 0 auto-sizes from the
	// circuit gate count and fault population. Clamped to the fault
	// population and shard.MaxShards either way.
	Shards int
	// Store, when set, serves already-computed shards without
	// re-simulation and persists fresh ones for the next run.
	Store *resultstore.Store
	// Workers bounds concurrently running shards (default: plan size).
	Workers int
	// Retries re-attempts a failed shard before quarantining it.
	Retries int
	// Timeout bounds each shard attempt (0: the campaign deadline only).
	Timeout time.Duration
	// Draining, when closed, lets in-flight shards finish, abandons the
	// unstarted remainder and fails the run with shard.ErrDraining (the
	// campaign is resumable: finished shards persisted to Store).
	Draining <-chan struct{}
	// Events receives scheduler lifecycle callbacks (all optional).
	Events shard.Events
	// OnCacheHit fires for each shard answered from the result store.
	// Like the Events callbacks it runs on scheduler goroutines, so it
	// must be safe for concurrent use.
	OnCacheHit func(shard.SubJob)
}

// shardEnv is the immutable per-campaign state every shard attempt
// shares: the circuit compiled once (read-only, so every shard's
// simulator can use it), the pattern set and the full fault universes
// the sub-job ranges index into.
type shardEnv struct {
	cc       *logic.CompiledCircuit
	engine   faultsim.Engine
	pats     []faultsim.Pattern
	saFaults []core.Fault
	trFaults []core.Fault
	bridges  []core.Bridge
	iddq     bool
	// trWorkers is each shard's transistor-sweep parallelism: the
	// request's Workers on a one-shard plan, 1 otherwise (the shards
	// already run concurrently; wider sweeps would oversubscribe).
	trWorkers int
	agg       *shardAgg
}

// shardAgg aggregates per-shard progress into campaign-level snapshots:
// each class keeps one slot per shard, summed on every emit, so the SSE
// stream shows the whole campaign advancing rather than one shard's
// private counters.
type shardAgg struct {
	ro     *RunObserver
	shards int

	mu      sync.Mutex
	done    int // finished sub-jobs
	classes map[string]*classAgg
	// ran sums each class's simulation time over the shards that ran it
	// live (cache-served shards add nothing).
	ran map[string]time.Duration
}

type classAgg struct {
	faults                         int // coverage denominator
	done, total, detected, dropped []int
	evals                          []uint64
}

func newShardAgg(ro *RunObserver, shards int) *shardAgg {
	return &shardAgg{ro: ro, shards: shards, classes: map[string]*classAgg{}, ran: map[string]time.Duration{}}
}

// ranFor adds one shard's simulation time for a class.
func (a *shardAgg) ranFor(stage string, d time.Duration) {
	a.mu.Lock()
	a.ran[stage] += d
	a.mu.Unlock()
}

// observeStages reports each simulated class once per campaign, with
// its time summed over every shard that ran it. Call it after the
// shards finished.
func (a *shardAgg) observeStages() {
	if a.ro.OnStage == nil {
		return
	}
	for stage, d := range a.ran {
		a.ro.OnStage(stage, d)
	}
}

func (a *shardAgg) class(name string, faults int) {
	a.classes[name] = &classAgg{
		faults: faults,
		done:   make([]int, a.shards), total: make([]int, a.shards),
		detected: make([]int, a.shards), dropped: make([]int, a.shards),
		evals: make([]uint64, a.shards),
	}
}

// note records one shard's latest snapshot for a class and emits the
// aggregate.
func (a *shardAgg) note(stage string, idx int, p faultsim.Progress) {
	if a.ro.Progress == nil {
		return
	}
	a.mu.Lock()
	ca, ok := a.classes[stage]
	if !ok {
		a.mu.Unlock()
		return
	}
	ca.done[idx], ca.total[idx] = p.Done, p.Total
	ca.detected[idx], ca.dropped[idx] = p.Detected, p.Dropped
	ca.evals[idx] = p.GateEvals
	snap := a.snapshotLocked(stage, ca)
	a.mu.Unlock()
	a.ro.Progress(snap)
}

// complete folds a finished shard's result in (live or cache-served):
// every class slot it carries becomes fully done over the shard's
// faults, detections counted from the records.
func (a *shardAgg) complete(j shard.SubJob, r *shard.Result) {
	a.mu.Lock()
	a.done++
	last := ""
	mark := func(stage string, cr *shard.ClassResult) {
		ca, ok := a.classes[stage]
		if cr == nil || !ok {
			return
		}
		n := 0
		for _, d := range cr.Dets {
			if d.Method != "" || d.Detected {
				n++
			}
		}
		// One record per fault in the shard's range: the same units the
		// live stage reports, so the aggregate counts faults throughout.
		ca.done[j.Index], ca.total[j.Index] = len(cr.Dets), len(cr.Dets)
		ca.detected[j.Index] = n
		last = stage
	}
	mark("stuck_at", r.StuckAt)
	mark("transistor", r.TransistorV)
	mark("transistor_iddq", r.TransistorIQ)
	mark("bridges", r.Bridges)
	var snap JobProgress
	if ca, ok := a.classes[last]; ok && a.ro.Progress != nil {
		snap = a.snapshotLocked(last, ca)
	}
	a.mu.Unlock()
	if snap.Stage != "" {
		a.ro.Progress(snap)
	}
}

func (a *shardAgg) snapshotLocked(stage string, ca *classAgg) JobProgress {
	p := JobProgress{Stage: stage, Faults: ca.faults, Shards: a.shards, ShardsDone: a.done}
	for i := 0; i < a.shards; i++ {
		p.Done += ca.done[i]
		p.Total += ca.total[i]
		p.Detected += ca.detected[i]
		p.Dropped += ca.dropped[i]
		p.GateEvals += ca.evals[i]
	}
	return p
}

// RunCampaignSharded executes one normalized campaign — the only
// campaign orchestrator — as a plan of content-addressed sub-jobs over
// contiguous fault ranges, then merges the shard results into one
// report. A one-shard plan without a store is the plain campaign
// (RunCampaignObserved); any shard count gives the same report and
// dictionary rows, which the shard differential tests pin against
// direct per-class engine sweeps. Shards already in opt.Store are served
// without simulation; fresh shards persist there for the next run. ATPG
// and the dictionary build are not fault-parallel and run once, after
// the shards.
//
// Stages (and their span names) are: patterns, compile, simulate (one
// shard child per attempt, each with per-fault-class children, then
// atpg), merge, dictionary, report. Request parsing happens before the
// campaign and is recorded by the job manager. OnStage sees each class
// once per campaign, with its time summed over the shards that ran it.
func RunCampaignSharded(ctx context.Context, c *logic.Circuit, req CampaignRequest, opt ShardedOptions, ro *RunObserver) (*CampaignReport, error) {
	if ro == nil {
		ro = &RunObserver{}
	}
	start := time.Now()

	engine, err := faultsim.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	if opt.Store != nil && !resultstore.ValidKey(opt.Key) {
		return nil, fmt.Errorf("sharded campaign with a result store needs a canonical campaign key, got %q", opt.Key)
	}

	patSpan, patDone := ro.stage(ro.Span, "patterns")
	pats := BuildPatterns(c, req.Patterns, req.Seed)
	patSpan.SetAttr("count", strconv.Itoa(len(pats)))
	patDone()

	_, compileDone := ro.stage(ro.Span, "compile")
	env := &shardEnv{cc: c.Compile(), engine: engine, pats: pats, iddq: req.Faults.IDDQ, trWorkers: 1}
	compileDone()

	if req.Faults.StuckAt {
		env.saFaults = core.Universe(c, core.ClassicalOnly())
	}
	uopt := core.UniverseOptions{
		ChannelBreak: req.Faults.StuckOpen,
		StuckOn:      req.Faults.StuckOn,
		Polarity:     req.Faults.Polarity,
	}
	if uopt.ChannelBreak || uopt.StuckOn || uopt.Polarity {
		env.trFaults = core.Universe(c, uopt)
	}
	if req.Faults.Bridges {
		env.bridges = core.NeighborBridges(c, req.Faults.BridgeWindow)
	}

	wantDict := ro.Dict != nil && ro.DictKey != ""
	k := opt.Shards
	if k <= 0 {
		k = shard.AutoShards(len(c.Gates), len(env.saFaults)+len(env.trFaults)+len(env.bridges))
	}
	plan := shard.NewPlan(opt.Key, k, len(env.saFaults), len(env.trFaults), len(env.bridges), wantDict)
	if plan.Total == 1 {
		env.trWorkers = req.Workers
	}
	if ro.Span != nil {
		ro.Span.SetAttr("shards", strconv.Itoa(plan.Total))
	}

	env.agg = newShardAgg(ro, plan.Total)
	if env.saFaults != nil {
		env.agg.class("stuck_at", len(env.saFaults))
	}
	if env.trFaults != nil {
		env.agg.class("transistor", len(env.trFaults))
		if req.Faults.IDDQ {
			env.agg.class("transistor_iddq", len(env.trFaults))
		}
	}
	if env.bridges != nil {
		env.agg.class("bridges", len(env.bridges))
	}

	stats := c.Statistics()
	rep := &CampaignReport{
		Circuit: CircuitInfo{
			Name:    c.Name,
			Inputs:  stats.Inputs,
			Outputs: stats.Outputs,
			Gates:   stats.Gates,
			DPGates: stats.DPGates,
		},
		Patterns: len(pats),
		Engine:   engine.String(),
	}
	simSpan, simDone := ro.stage(ro.Span, "simulate")

	results := make([]*shard.Result, plan.Total)
	attempt := func(ctx context.Context, j shard.SubJob) error {
		sp := simSpan.Child("shard")
		defer sp.End()
		sp.SetAttr("index", fmt.Sprintf("%d/%d", j.Index, j.Total))
		sp.SetAttr("key", j.Key)
		if opt.Store != nil {
			var cached shard.Result
			if err := opt.Store.Get(resultstore.KindShard, j.Key, &cached); err == nil {
				// A stored artifact that does not answer this sub-job
				// (corruption, a key scheme change) is treated as a miss
				// and overwritten by the fresh run below.
				if cached.Matches(j) == nil {
					sp.SetAttr("cache", "hit")
					results[j.Index] = &cached
					if opt.OnCacheHit != nil {
						opt.OnCacheHit(j)
					}
					env.agg.complete(j, &cached)
					return nil
				}
				sp.SetAttr("cache", "mismatch")
			}
		}
		res, err := runShardJob(ctx, env, opt.Key, j, sp)
		if err != nil {
			return err
		}
		if opt.Store != nil {
			if _, err := opt.Store.Put(resultstore.KindShard, j.Key, res); err != nil {
				// Persistence failure costs the next run a re-simulation;
				// it must not fail this one.
				sp.SetAttr("store_error", err.Error())
			}
		}
		results[j.Index] = res
		env.agg.complete(j, res)
		return nil
	}
	sched := &shard.Scheduler{
		Workers:  opt.Workers,
		Retries:  opt.Retries,
		Timeout:  opt.Timeout,
		Draining: opt.Draining,
	}
	if err := sched.Run(ctx, plan.Jobs, attempt, opt.Events); err != nil {
		return nil, err
	}
	env.agg.observeStages()

	// ATPG is a sequential generator, not a fault-parallel sweep: it
	// runs once, after the shards.
	if req.ATPG {
		genOpt := uopt
		genOpt.LineStuckAt = req.Faults.StuckAt
		universe := core.Universe(c, genOpt)
		atpgOpt := atpg.Options{Engine: engine}
		if ro.Progress != nil {
			atpgOpt.Progress = func(p atpg.Progress) {
				ro.Progress(JobProgress{
					Stage:      "atpg",
					Class:      p.Class,
					Done:       p.Done,
					Total:      p.Total,
					Detected:   p.Covered,
					Faults:     p.Total,
					Untestable: p.Untestable,
					Vectors:    p.Vectors,
					Shards:     plan.Total,
					ShardsDone: plan.Total,
				})
			}
		}
		_, done := ro.stage(simSpan, "atpg")
		res, err := atpg.GenerateContext(ctx, c, universe, atpgOpt)
		if err != nil {
			return nil, err
		}
		done()
		rep.ATPG = &ATPGJSON{
			StuckAtTargeted:  res.StuckAtTargeted,
			StuckAtCovered:   res.StuckAtCovered,
			PolarityTargeted: res.PolarityTargeted,
			PolarityCovered:  res.PolarityCovered,
			CBSPTargeted:     res.CBSPTargeted,
			CBSPCovered:      res.CBSPCovered,
			CBDPTargeted:     res.CBDPTargeted,
			CBDPCovered:      res.CBDPCovered,
			Coverage:         res.Coverage(),
			TotalVectors:     res.Set.TotalVectors(),
			Untestable:       len(res.Untestable),
		}
	}
	simDone()

	// Coverage comes straight from the shard records; signatures are
	// merged only when a dictionary is built from them.
	mergeSpan, mergeDone := ro.stage(ro.Span, "merge")
	collect := func(pick func(*shard.Result) *shard.ClassResult) []*shard.ClassResult {
		out := make([]*shard.ClassResult, 0, len(results))
		for _, r := range results {
			if r != nil {
				out = append(out, pick(r))
			}
		}
		return out
	}
	var saCapture, trCapture *faultsim.SignatureCapture
	if env.saFaults != nil {
		parts := collect(func(r *shard.Result) *shard.ClassResult { return r.StuckAt })
		if rep.StuckAt, err = classCoverage(env.saFaults, parts); err != nil {
			return nil, err
		}
		if wantDict {
			if saCapture, err = shard.MergeSignatures(len(env.saFaults), len(pats), parts, false); err != nil {
				return nil, err
			}
		}
	}
	if env.trFaults != nil {
		parts := collect(func(r *shard.Result) *shard.ClassResult { return r.TransistorV })
		if rep.Transistor, err = classCoverage(env.trFaults, parts); err != nil {
			return nil, err
		}
		if wantDict && !req.Faults.IDDQ {
			if trCapture, err = shard.MergeSignatures(len(env.trFaults), len(pats), parts, false); err != nil {
				return nil, err
			}
		}
		if req.Faults.IDDQ {
			parts := collect(func(r *shard.Result) *shard.ClassResult { return r.TransistorIQ })
			if rep.TransistorIDDQ, err = classCoverage(env.trFaults, parts); err != nil {
				return nil, err
			}
			if wantDict {
				if trCapture, err = shard.MergeSignatures(len(env.trFaults), len(pats), parts, true); err != nil {
					return nil, err
				}
			}
		}
	}
	if env.bridges != nil {
		cov, err := shard.BridgeCoverage(len(env.bridges), collect(func(r *shard.Result) *shard.ClassResult { return r.Bridges }))
		if err != nil {
			return nil, err
		}
		rep.Bridges = coverageJSON(cov)
	}
	mergeSpan.SetAttr("shards", strconv.Itoa(plan.Total))
	mergeDone()

	// Signature harvesting: the stuck-at sweep and one transistor sweep
	// ran with a capture sink, so the dictionary comes out of the
	// simulation the campaign performed anyway. The leak plane needs the
	// +IDDQ run; without IDDQ the voltage run carries the (identical)
	// output plane.
	if wantDict && (saCapture != nil || trCapture != nil) {
		dictSpan, done := ro.stage(ro.Span, "dictionary")
		d := &dict.Dictionary{Meta: dict.Meta{
			Key:       ro.DictKey,
			Circuit:   c.Name,
			Patterns:  len(pats),
			Seed:      req.Seed,
			Engine:    engine.String(),
			IDDQ:      req.Faults.IDDQ,
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
		}}
		addEntries := func(faults []core.Fault, capture *faultsim.SignatureCapture, leak bool) {
			for i := range faults {
				e := dict.Entry{
					Fault: faults[i].String(),
					Out:   dict.FromWords(len(pats), capture.Out(i)),
					Leak:  dict.NewBitset(len(pats)),
				}
				if leak {
					e.Leak = dict.FromWords(len(pats), capture.Leak(i))
				}
				d.Entries = append(d.Entries, e)
			}
		}
		if saCapture != nil {
			addEntries(env.saFaults, saCapture, false)
		}
		if trCapture != nil {
			addEntries(env.trFaults, trCapture, req.Faults.IDDQ)
		}
		_, size, err := ro.Dict.Put(d)
		if err != nil {
			return nil, fmt.Errorf("dictionary: %w", err)
		}
		dictSpan.SetAttr("entries", strconv.Itoa(len(d.Entries)))
		dictSpan.SetAttr("bytes", strconv.FormatInt(size, 10))
		rep.Dictionary = &DictionaryJSON{
			Key:                 d.Meta.Key,
			Entries:             d.Meta.Entries,
			Patterns:            d.Meta.Patterns,
			IDDQ:                d.Meta.IDDQ,
			CompressedBytes:     size,
			Detected:            d.Meta.Resolution.Detected,
			Classes:             d.Meta.Resolution.Classes,
			UniquelyDiagnosable: d.Meta.Resolution.UniquelyDiagnosable,
		}
		done()
	}

	_, reportDone := ro.stage(ro.Span, "report")
	rep.Tables = buildTables(rep)
	reportDone()
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep, nil
}

// classCoverage summarises one fault class straight from its shard
// records, naming the undetected faults from the class universe.
func classCoverage(universe []core.Fault, parts []*shard.ClassResult) (*CoverageJSON, error) {
	var undetected []string
	cov, err := shard.Summarise(len(universe), parts, func(i int) {
		undetected = append(undetected, universe[i].String())
	})
	if err != nil {
		return nil, err
	}
	out := coverageJSON(cov)
	out.Undetected = undetected
	return out, nil
}

// runShardJob simulates one sub-job's fault slices, each class sweep
// traced as a child of the shard span sp. The simulator is private to
// the attempt (capture sinks and progress hooks are simulator state)
// but shares the campaign's compiled circuit.
func runShardJob(ctx context.Context, env *shardEnv, campaignKey string, j shard.SubJob, sp *obs.Span) (*shard.Result, error) {
	sim := faultsim.NewCompiled(env.cc)
	sim.Engine = env.engine

	// Stage bookkeeping for the progress aggregator and the gate-eval
	// tally: the simulator reports cumulative gate evals per run, so the
	// shard total is the sum of each run's final snapshot.
	currentStage := ""
	var lastEvals, totalEvals uint64
	sim.Progress = func(p faultsim.Progress) {
		lastEvals = p.GateEvals
		env.agg.note(currentStage, j.Index, p)
	}
	// stage opens one class sweep; the returned func ends its span and
	// books its gate evals and time.
	stage := func(name string) func() {
		currentStage = name
		cs := sp.Child(name)
		start := time.Now()
		return func() {
			cs.End()
			env.agg.ranFor(name, time.Since(start))
			totalEvals += lastEvals
			lastEvals = 0
		}
	}

	res := &shard.Result{Key: j.Key, CampaignKey: campaignKey, Index: j.Index, Total: j.Total}

	if env.saFaults != nil {
		done := stage("stuck_at")
		faults := env.saFaults[j.StuckAt.Start:j.StuckAt.End]
		var capture *faultsim.SignatureCapture
		if j.Capture {
			capture = faultsim.NewSignatureCapture(len(faults), len(env.pats))
			sim.Signatures = capture
		}
		ds, err := sim.RunStuckAtContext(ctx, faults, env.pats)
		sim.Signatures = nil
		done()
		if err != nil {
			return nil, err
		}
		cr := &shard.ClassResult{Range: j.StuckAt, Dets: shard.EncodeDetections(ds)}
		if capture != nil {
			cr.Out = shard.EncodeSigRows(capture, false)
		}
		res.StuckAt = cr
	}

	if env.trFaults != nil {
		done := stage("transistor")
		faults := env.trFaults[j.Transistor.Start:j.Transistor.End]
		var capture *faultsim.SignatureCapture
		if j.Capture && !env.iddq {
			capture = faultsim.NewSignatureCapture(len(faults), len(env.pats))
			sim.Signatures = capture
		}
		ds, err := sim.RunTransistorParallel(ctx, faults, env.pats, false, env.trWorkers)
		sim.Signatures = nil
		done()
		if err != nil {
			return nil, err
		}
		cr := &shard.ClassResult{Range: j.Transistor, Dets: shard.EncodeDetections(ds)}
		if capture != nil {
			cr.Out = shard.EncodeSigRows(capture, false)
		}
		res.TransistorV = cr

		if env.iddq {
			done := stage("transistor_iddq")
			capture = nil
			if j.Capture {
				capture = faultsim.NewSignatureCapture(len(faults), len(env.pats))
				sim.Signatures = capture
			}
			ds, err := sim.RunTransistorParallel(ctx, faults, env.pats, true, env.trWorkers)
			sim.Signatures = nil
			done()
			if err != nil {
				return nil, err
			}
			cr := &shard.ClassResult{Range: j.Transistor, Dets: shard.EncodeDetections(ds)}
			if capture != nil {
				cr.Out = shard.EncodeSigRows(capture, false)
				cr.Leak = shard.EncodeSigRows(capture, true)
			}
			res.TransistorIQ = cr
		}
	}

	if env.bridges != nil {
		done := stage("bridges")
		brs := env.bridges[j.Bridges.Start:j.Bridges.End]
		ds, err := sim.RunBridgesObserved(ctx, brs, env.pats, env.iddq)
		done()
		if err != nil {
			return nil, err
		}
		res.Bridges = &shard.ClassResult{Range: j.Bridges, Dets: shard.EncodeBridgeDetections(ds)}
	}

	res.GateEvals = totalEvals
	return res, nil
}
