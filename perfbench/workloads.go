package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/service"
)

const (
	clients     = 2  // closed-loop clients, one per core of the reference box
	patterns    = 64 // random-pattern budget of every campaign op
	warmupOps   = 4  // untimed campaign ops per set-up
	durableWait = 10 * time.Second
	// minOps is the fewest ops an untraced window completes, so at
	// least ten latency samples lie beyond p90. Peak RSS is read when
	// the minOps-th op completes, so commits are compared at equal work
	// rather than equal wall time; the window runs past its deadline
	// until then, so a slower commit still reaches that point.
	minOps = 100
	// countOps is the number of sequential ops whose /metrics deltas
	// give the traced run's exact per-op counts.
	countOps = 2
)

// Op index spaces: every request is a pure function of (workload seed,
// index), and phases draw from disjoint ranges so no two phases submit
// the same campaign.
const (
	phaseWindow int64 = 0
	phaseWarmup int64 = 1 << 40
	phaseCount  int64 = 2 << 40
)

// workload fixes the server deployment and the request stream.
type workload struct {
	durable bool                // server runs with -result-dir and -dict-dir
	circuit string              // bench registry name
	faults  service.FaultConfig // fault classes of every op
}

var allFaults = service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true}

var workloads = map[string]workload{
	"campaign_mem":     {circuit: "mult16", faults: allFaults},
	"campaign_durable": {durable: true, circuit: "mult16", faults: allFaults},
}

// runner is one benchmark run: the workload, its live server and the
// state set-up derived for the correctness checks.
type runner struct {
	name   string
	wl     workload
	seed   int64
	bin    string
	dir    string // per-run scratch directory inside the checkout
	client *http.Client

	srv      *server
	storeDir string             // the server's store root ("" when store-less)
	results  *resultstore.Store // read-only view of the server's result store

	totals map[string]int // coverage class -> fault-universe size
}

// mix is splitmix64: a seeded, well-spread index -> value map.
func mix(seed, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// request is the campaign of op index i: the workload's fault config on
// a fresh pattern seed.
func (b *runner) request(i int64) service.CampaignRequest {
	return service.CampaignRequest{
		Benchmark: b.wl.circuit,
		Faults:    b.wl.faults,
		Patterns:  patterns,
		Seed:      int64(mix(b.seed, i)>>2) + 1,
		Engine:    "packed",
	}
}

// setup brings up a fresh server in a fresh store and runs the
// workload's deterministic preparation: circuit resolution, fault
// universe enumeration, server start and warmupOps untimed ops. It
// returns how long that took; stopping the previous server is not
// part of it.
func (b *runner) setup(ctx context.Context, rep int) (time.Duration, error) {
	b.srv.stop()
	b.srv, b.results = nil, nil

	start := time.Now()
	c, err := bench.Get(b.wl.circuit)
	if err != nil {
		return 0, err
	}
	b.totals = universeSizes(c, b.wl.faults)

	b.storeDir = ""
	if b.wl.durable {
		b.storeDir = filepath.Join(b.dir, fmt.Sprintf("store-%d", rep))
		if err := os.RemoveAll(b.storeDir); err != nil {
			return 0, err
		}
	}
	if err := b.boot(ctx); err != nil {
		return 0, err
	}
	err = b.parallel(ctx, warmupOps, func(k int) error {
		_, err := b.op(ctx, phaseWarmup+int64(k), nil)
		return err
	})
	return time.Since(start), err
}

// boot starts the server on the current store directory.
func (b *runner) boot(ctx context.Context) error {
	// A port freePort handed out can be taken before the server binds
	// it, so a failed start is retried on a fresh port.
	var srv *server
	var err error
	for attempt := 0; attempt < 3 && srv == nil && ctx.Err() == nil; attempt++ {
		logPath := filepath.Join(b.dir, fmt.Sprintf("server-%d.log", time.Now().UnixNano()))
		srv, err = startServer(ctx, b.bin, logPath, b.storeDir, b.client)
	}
	if srv == nil {
		return errors.Join(err, ctx.Err())
	}
	b.srv = srv
	if b.storeDir != "" {
		rs, err := resultstore.Open(filepath.Join(b.storeDir, "results"))
		if err != nil {
			return err
		}
		b.results = rs
	}
	return nil
}

// universeSizes is the coverage denominator of every class the config
// enables, from the same enumerations the service uses.
func universeSizes(c *logic.Circuit, f service.FaultConfig) map[string]int {
	out := map[string]int{}
	if f.StuckAt {
		out["stuck_at"] = len(core.Universe(c, core.ClassicalOnly()))
	}
	if f.Polarity || f.StuckOpen || f.StuckOn {
		n := len(core.Universe(c, core.UniverseOptions{ChannelBreak: f.StuckOpen, StuckOn: f.StuckOn, Polarity: f.Polarity}))
		out["transistor"] = n
		if f.IDDQ {
			out["transistor_iddq"] = n
		}
	}
	if f.Bridges {
		out["bridges"] = len(core.NeighborBridges(c, 2))
	}
	return out
}

// parallel runs n indexed tasks on the closed-loop clients and returns
// the first error.
func (b *runner) parallel(ctx context.Context, n int, task func(k int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || ctx.Err() != nil {
					return
				}
				if err := task(k); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(append(errs, ctx.Err())...)
}

// observation is a tester response drawn from a dictionary: the exact
// out/leak signature of its first detected fault.
func observation(d *dict.Dictionary, key string) (service.DiagnoseRequest, bool) {
	for _, e := range d.Entries {
		if e.Detected() {
			return service.DiagnoseRequest{
				Key:             key,
				FailingPatterns: e.Out.Members(),
				LeakingPatterns: e.Leak.Members(),
				TopK:            5,
			}, true
		}
	}
	return service.DiagnoseRequest{}, false
}

// opResult is what one campaign submission produced.
type opResult struct {
	req      service.CampaignRequest
	key      string
	rep      *service.CampaignReport
	cacheHit bool
}

// op runs op i end to end: submit, wait for the terminal frame, wait
// for the report on disk (durable servers) and fetch the report. Any
// failure, refusal or wrong answer is an error. rec, when set, receives
// one span per HTTP call.
func (b *runner) op(ctx context.Context, i int64, rec *recorder) (opResult, error) {
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	res, err := campaign(ctx, b.client, b.srv.base, b.results, b.request(i), rec, i)
	if err != nil {
		return res, err
	}
	return res, b.checkReport(res.rep)
}

// campaign submits req and returns its report once the terminal frame
// arrived and, when results is set, the report is on disk there.
func campaign(ctx context.Context, client *http.Client, base string, results *resultstore.Store, req service.CampaignRequest, rec *recorder, op int64) (opResult, error) {
	res := opResult{req: req}
	t := time.Now()
	var st service.JobStatus
	if err := call(ctx, client, http.MethodPost, base+"/v1/campaigns", req, &st); err != nil {
		return res, fmt.Errorf("submit: %w", err)
	}
	rec.add(op, "service.submit_http", t)
	res.key, res.cacheHit = st.Key, st.CacheHit
	if !st.State.Terminal() {
		t = time.Now()
		var err error
		if st, err = waitTerminal(ctx, client, base, st.ID); err != nil {
			return res, err
		}
		rec.add(op, "service.wait_done", t)
		if s, err1 := time.Parse(time.RFC3339Nano, st.Submitted); err1 == nil {
			if r, err2 := time.Parse(time.RFC3339Nano, st.Started); err2 == nil {
				rec.addDur(op, "service.queue_wait", r.Sub(s))
			}
		}
	}
	if st.State != service.StateDone {
		return res, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if results != nil {
		t = time.Now()
		for !results.Has(resultstore.KindReport, st.Key) {
			if time.Since(t) > durableWait {
				return res, fmt.Errorf("campaign %s done but its report is not on disk after %v", st.ID, durableWait)
			}
			time.Sleep(200 * time.Microsecond)
		}
		rec.add(op, "service.durable_lag", t)
	}
	t = time.Now()
	res.rep = new(service.CampaignReport)
	if err := call(ctx, client, http.MethodGet, base+"/v1/campaigns/"+st.ID+"/report", nil, res.rep); err != nil {
		return res, fmt.Errorf("report: %w", err)
	}
	rec.add(op, "service.report_http", t)
	return res, nil
}

// diagnose posts one observation and requires an exact top candidate.
func diagnose(ctx context.Context, client *http.Client, base string, q service.DiagnoseRequest, rec *recorder, op int64) error {
	t := time.Now()
	var resp service.DiagnoseResponse
	if err := call(ctx, client, http.MethodPost, base+"/v1/diagnose", q, &resp); err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	rec.add(op, "service.diagnose_http", t)
	if len(resp.Candidates) == 0 || resp.Candidates[0].Score != 1 {
		return fmt.Errorf("diagnose %s: top candidate is not exact: %+v", q.Key, resp.Candidates)
	}
	return nil
}

// checkReport requires every served coverage total to equal the fault
// universe set-up enumerated.
func (b *runner) checkReport(rep *service.CampaignReport) error {
	got := coverages(rep)
	if len(got) != len(b.totals) {
		return fmt.Errorf("report has %d coverage classes, want %d", len(got), len(b.totals))
	}
	for class, cov := range got {
		if cov.Total != b.totals[class] {
			return fmt.Errorf("%s coverage total %d, fault universe has %d", class, cov.Total, b.totals[class])
		}
	}
	return nil
}

// coverages lists the report's coverage classes by name.
func coverages(rep *service.CampaignReport) map[string]*service.CoverageJSON {
	out := map[string]*service.CoverageJSON{}
	for name, c := range map[string]*service.CoverageJSON{
		"stuck_at": rep.StuckAt, "transistor": rep.Transistor,
		"transistor_iddq": rep.TransistorIDDQ, "bridges": rep.Bridges,
	} {
		if c != nil {
			out[name] = c
		}
	}
	return out
}

// sameCoverage compares the detected/total figures of two reports.
func sameCoverage(a, b *service.CampaignReport) bool {
	ca, cb := coverages(a), coverages(b)
	if len(ca) != len(cb) {
		return false
	}
	for name, x := range ca {
		y := cb[name]
		if y == nil || x.Total != y.Total || x.Detected != y.Detected {
			return false
		}
	}
	return true
}
