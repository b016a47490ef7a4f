// Command perfbench is the campaign-service benchmark: it drives a
// cpsinw-serve child process over loopback HTTP with a closed loop of
// two clients and reports end-to-end metrics, or, with -trace 1, the
// per-layer metrics of a traced run. Run it through run.sh, which
// builds the server from the same checkout:
//
//	bash perfbench/run.sh --workload campaign_durable --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cpsinw/internal/bench"
	"cpsinw/internal/logic"
	"cpsinw/internal/service"
)

const (
	setupReps  = 3 // set-ups per untraced run; setup_s is their median
	sampleOps  = 2 // ops re-derived in-process after the window
	sampleFrom = 8 // ... drawn from the first window op indices, which always complete
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "campaign_mem or campaign_durable")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same request stream")
	seconds := flag.Float64("seconds", 40, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	bin := flag.String("server", "", "cpsinw-serve binary built from this checkout")
	work := flag.String("work", "", "directory for per-run stores and span files")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (campaign_mem or campaign_durable), -server and -work")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp(*work, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &runner{
		name: *name, wl: wl, seed: *seed, bin: *bin, dir: dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
	}
	defer func() { b.srv.stop() }()

	window := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = b.traced(ctx, window, filepath.Join(*work, fmt.Sprintf("spans-%s-%d.json", *name, *seed)))
	} else {
		res, err = b.measure(ctx, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// windowStats is one closed-loop measurement window.
type windowStats struct {
	attempted int
	lat       []float64 // seconds, successful ops
	elapsed   time.Duration
	cpu       time.Duration // server user+system
	rssMB     float64       // VmHWM after minOps completed ops
	done      map[int64]opResult
	errs      []error
}

// ok counts the ops that completed with correct answers.
func (w windowStats) ok() int { return w.attempted - len(w.errs) }

func (w windowStats) opsPerS() float64 { return float64(w.ok()) / w.elapsed.Seconds() }

// window runs the closed loop for d, and past it until atLeast ops
// completed: each client sends its next op only after the previous one
// completed; ops in flight at the deadline run to completion and count.
// Peak RSS is read when the atLeast-th op completes (at the end when
// atLeast is 0).
func (b *runner) window(ctx context.Context, d time.Duration, atLeast int, first int64, rec *recorder) (windowStats, error) {
	cpu0, err := b.srv.cpu()
	if err != nil {
		return windowStats{}, err
	}
	w := windowStats{done: map[int64]opResult{}}
	var mu sync.Mutex
	var next, completed atomic.Int64
	next.Store(first)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if time.Now().After(deadline) && i-first >= int64(atLeast) {
					return
				}
				t := time.Now()
				res, err := b.op(ctx, i, rec)
				lat := time.Since(t)
				rec.addDur(i, "op", lat)
				if completed.Add(1) == int64(atLeast) {
					if rss, err := b.srv.peakRSSMB(); err == nil {
						mu.Lock()
						w.rssMB = rss
						mu.Unlock()
					}
				}
				mu.Lock()
				w.attempted++
				if err != nil {
					w.errs = append(w.errs, fmt.Errorf("op %d: %w", i-first, err))
				} else {
					w.lat = append(w.lat, lat.Seconds())
					w.done[i] = res
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return w, err
	}
	cpu1, err := b.srv.cpu()
	if err != nil {
		return w, err
	}
	w.cpu = cpu1 - cpu0
	if w.rssMB == 0 {
		if w.rssMB, err = b.srv.peakRSSMB(); err != nil {
			return w, err
		}
	}
	if len(w.lat) == 0 {
		return w, errors.Join(append([]error{errors.New("no op completed")}, w.errs...)...)
	}
	return w, nil
}

// sample re-derives a seeded sample of the window's ops in-process; a
// mismatch turns that op into a failure. It returns the ops that held.
func (b *runner) sample(ctx context.Context, w *windowStats, first int64) ([]opResult, error) {
	var out []opResult
	for k := int64(0); k < sampleOps; k++ {
		res, ok := w.done[first+int64(mix(b.seed^0x2545f491, k)%sampleFrom)]
		if !ok {
			continue // a failed op is already counted
		}
		if err := verify(ctx, res); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			w.errs = append(w.errs, err)
			continue
		}
		out = append(out, res)
	}
	return out, nil
}

// report prints failures to stderr and fills the correctness fields.
func (w windowStats) report(name string) *result {
	for k, err := range w.errs {
		if k == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d more failures\n", name, len(w.errs)-5)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	}
	return &result{
		Correct:   len(w.errs) == 0,
		Attempted: w.attempted,
		Failed:    len(w.errs),
		Metrics:   map[string]metric{},
	}
}

// measure is the untraced run: setupReps set-ups, one window on the
// last set-up's server, then the sampled re-derivation.
func (b *runner) measure(ctx context.Context, d time.Duration) (*result, error) {
	setups := make([]float64, setupReps)
	for r := range setups {
		t, err := b.setup(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[r] = t.Seconds()
	}
	w, err := b.window(ctx, d, minOps, phaseWindow, nil)
	if err != nil {
		return nil, err
	}
	if _, err := b.sample(ctx, &w, phaseWindow); err != nil {
		return nil, err
	}
	res := w.report(b.name)
	res.Metrics = map[string]metric{
		"ops_per_s":    {w.opsPerS(), "1/s"},
		"op_p50_s":     {quantile(w.lat, 0.5), "s"},
		"op_p90_s":     {quantile(w.lat, 0.9), "s"},
		"cpu_s_per_op": {w.cpu.Seconds() / float64(w.attempted), "s"},
		"peak_rss_mb":  {w.rssMB, "MB"},
		"setup_s":      {quantile(setups, 0.5), "s"},
		"op_ok_ratio":  {float64(w.ok()) / float64(w.attempted), "ratio"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2fs, set-ups %v\n", b.name, w.attempted, w.elapsed.Seconds(), setups)
	return res, nil
}

// traced is the per-layer run: one set-up, the exact count phase, an
// untraced and a traced half window (their throughput ratio is the
// tracing overhead), then the in-process replay of a seeded sample of
// the traced half's ops.
func (b *runner) traced(ctx context.Context, d time.Duration, spansPath string) (*result, error) {
	if _, err := b.setup(ctx, 0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	counts, err := b.counts(ctx)
	if err != nil {
		return nil, err
	}
	plain, err := b.window(ctx, d/2, 0, phaseWindow, nil)
	if err != nil {
		return nil, err
	}
	const tracedFirst = phaseWindow + 1<<30
	win := newRecorder("window")
	w, err := b.window(ctx, d/2, 0, tracedFirst, win)
	if err != nil {
		return nil, err
	}
	overhead := plain.opsPerS() / w.opsPerS()
	w.attempted += plain.attempted + countOps
	w.errs = append(w.errs, plain.errs...)
	sampled, err := b.sample(ctx, &w, tracedFirst)
	if err != nil {
		return nil, err
	}

	c432, err := bench.Get("c432")
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := logic.WriteBench(&sb, c432); err != nil {
		return nil, err
	}
	rep := newRecorder("replay")
	tmp := filepath.Join(b.dir, "replay")
	var reqs []service.CampaignRequest
	for k, s := range sampled {
		reqs = append(reqs, s.req)
		if err := replay(ctx, s.req, sb.String(), tmp, rep, int64(k)); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	if len(reqs) == 0 {
		return nil, errors.New("no sampled op to replay")
	}
	lruRatio, err := b.httpReplay(ctx, reqs, tmp, rep, int64(len(reqs)))
	if err != nil {
		return nil, fmt.Errorf("http replay: %w", err)
	}
	vectors, err := atpgReplay(ctx, rep)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, win, rep); err != nil {
		return nil, err
	}

	res := w.report(b.name)
	for _, name := range layerSpans {
		v, ok := win.median(name)
		if !ok || v == 0 {
			v, ok = rep.median(name)
		}
		if !ok {
			return nil, fmt.Errorf("no %s span recorded", name)
		}
		res.Metrics[name+"_s"] = metric{v, "s"}
	}
	single, _ := rep.median("service.single_campaign")
	withDict, _ := rep.median("service.single_campaign_dict")
	res.Metrics["service.dict_on_over_off"] = metric{withDict / single, "ratio"}
	res.Metrics["service.lru_hit_ratio"] = metric{lruRatio, "ratio"}
	for _, c := range []struct{ name, unit string }{
		{"faultsim.gate_evals_per_op", "count"}, {"shard.subjobs_per_op", "count"},
		{"dict.bytes_per_op", "bytes"}, {"resultstore.bytes_per_op", "bytes"},
	} {
		res.Metrics[c.name] = metric{counts[c.name], c.unit}
	}
	res.Metrics["atpg.vectors"] = metric{float64(vectors), "count"}
	res.Metrics["obs.trace_overhead"] = metric{overhead, "ratio"}
	return res, nil
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
