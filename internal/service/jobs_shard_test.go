package service

import (
	"sort"
	"testing"
	"time"

	"cpsinw/internal/resultstore"
)

var storeTestReq = CampaignRequest{
	Benchmark: "mult3",
	Faults:    FaultConfig{StuckAt: true, Polarity: true, IDDQ: true},
	Engine:    "packed",
	Shards:    4,
}

// TestManagerReportSurvivesRestart pins the durable half of the result
// store: a campaign computed by one manager is answered whole — no
// simulation, born done — by a fresh manager on the same directory.
func TestManagerReportSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	j1, err := m1.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, j1)
	if st1.State != StateDone {
		t.Fatalf("first run finished %s: %s", st1.State, st1.Error)
	}
	rep1, _, _ := j1.Report()
	m1.Close()

	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	defer m2.Close()
	if n := len(m2.Resumable()); n != 0 {
		t.Fatalf("finished campaign recovered as resumable (%d records)", n)
	}
	j2, err := m2.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("restarted manager: state %s cacheHit %t, want immediate done hit", st2.State, st2.CacheHit)
	}
	if got := m2.Metrics().StoreReportHits.Value(); got != 1 {
		t.Fatalf("resultstore report hits = %d, want 1", got)
	}
	rep2, _, _ := j2.Report()
	if rep1.StuckAt.Detected != rep2.StuckAt.Detected || rep1.Transistor.Detected != rep2.Transistor.Detected {
		t.Fatal("store-served report disagrees with the computed one")
	}
}

// TestManagerShardMetricsAndProgress checks the executed sharded
// campaign's observable surface: shard counters and the aggregated
// per-shard progress fields.
func TestManagerShardMetricsAndProgress(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, ResultDir: t.TempDir(), ProgressInterval: -1})
	defer m.Close()
	j, err := m.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := m.Subscribe(j)
	defer cancel()
	sawShards := false
	for st := range ch {
		if st.Progress != nil && st.Progress.Shards == 4 && st.Progress.ShardsDone > 0 {
			sawShards = true
		}
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("campaign finished %s: %s", st.State, st.Error)
	}
	if !sawShards {
		t.Fatal("no progress frame carried shard aggregation (shards/shards_done)")
	}
	if got := m.Metrics().ShardScheduled.Value(); got != 4 {
		t.Fatalf("shards scheduled = %d, want 4", got)
	}
	if got := m.Metrics().ShardCacheHits.Value(); got != 0 {
		t.Fatalf("shard cache hits = %d, want 0 on a cold store", got)
	}

	// Resubmitting after the LRU is cleared exercises the store path.
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: m.cfg.ResultDir})
	defer m2.Close()
	j2, err := m2.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("second manager state %s, want done from store", st.State)
	}
}

// TestManagerDrainParksQueuedAsResumable pins the graceful-drain and
// resume lifecycle: Drain parks never-started campaigns as durable
// resumable state, a fresh manager recovers them, and resuming runs
// them to completion (consuming the pending markers).
func TestManagerDrainParksQueuedAsResumable(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(ManagerConfig{Workers: 1, ResultDir: dir})
	reqs := []CampaignRequest{
		{Benchmark: "mult4", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}, Engine: "packed", Shards: 2},
		{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true}, Shards: 2},
		{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true, Bridges: true}, Shards: 2},
	}
	jobs := make([]*Job, len(reqs))
	for i, r := range reqs {
		j, err := m1.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	m1.Drain()

	done, resumable := 0, 0
	for _, j := range jobs {
		switch st := j.Status(); st.State {
		case StateDone:
			done++
		case StateResumable:
			resumable++
			if !m1.store.Has(resultstore.KindPending, j.Key) {
				t.Fatalf("resumable job %s has no pending marker", j.ID)
			}
		default:
			t.Fatalf("after drain job %s is %s, want done or resumable", j.ID, st.State)
		}
	}
	if done+resumable != len(jobs) || resumable == 0 {
		t.Fatalf("after drain: %d done, %d resumable of %d", done, resumable, len(jobs))
	}

	// Restart: the drained campaigns come back as resumable records.
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	defer m2.Close()
	recovered := m2.Resumable()
	if len(recovered) != resumable {
		t.Fatalf("recovered %d resumable campaigns, want %d", len(recovered), resumable)
	}
	for _, st := range recovered {
		nj, err := m2.Resume(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, nj); fin.State != StateDone {
			t.Fatalf("resumed campaign %s finished %s: %s", nj.ID, fin.State, fin.Error)
		}
		if m2.store.Has(resultstore.KindPending, nj.Key) {
			t.Fatalf("pending marker for %s survived completion", nj.Key)
		}
	}
	if left := m2.Resumable(); len(left) != 0 {
		t.Fatalf("%d campaigns still listed resumable after resuming all", len(left))
	}
}

// TestManagerResumeRejectsNonResumable guards the resume endpoint's
// state machine.
func TestManagerResumeRejectsNonResumable(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, ResultDir: t.TempDir()})
	defer m.Close()
	j, err := m.Submit(CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if _, err := m.Resume(j.ID); err == nil {
		t.Fatal("resumed a done campaign")
	}
	if _, err := m.Resume("c-999999"); err == nil {
		t.Fatal("resumed a nonexistent campaign")
	}
}

// TestManagerShardConcurrencyCapped: the manager's worker count bounds
// a sharded campaign's shard fan-out, so on a one-worker manager the
// shard spans of the trace never overlap.
func TestManagerShardConcurrencyCapped(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, ResultDir: t.TempDir()})
	defer m.Close()
	req := CampaignRequest{
		Benchmark: "mult6",
		Faults:    FaultConfig{StuckAt: true, Polarity: true, StuckOn: true, IDDQ: true},
		Shards:    4,
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("campaign finished %s: %s", st.State, st.Error)
	}
	tree, ok := m.Tracer().Tree(j.ID)
	if !ok {
		t.Fatal("no trace recorded")
	}
	type interval struct{ start, end time.Time }
	var shards []interval
	for _, stage := range tree.Children {
		if stage.Name != "simulate" {
			continue
		}
		for _, sp := range stage.Children {
			if sp.Name != "shard" {
				continue
			}
			start, err1 := time.Parse(time.RFC3339Nano, sp.Start)
			end, err2 := time.Parse(time.RFC3339Nano, sp.End)
			if err1 != nil || err2 != nil {
				t.Fatalf("shard span times %q..%q: %v %v", sp.Start, sp.End, err1, err2)
			}
			shards = append(shards, interval{start, end})
		}
	}
	if len(shards) != 4 {
		t.Fatalf("trace has %d shard spans, want 4", len(shards))
	}
	sort.Slice(shards, func(a, b int) bool { return shards[a].start.Before(shards[b].start) })
	for i := 1; i < len(shards); i++ {
		if shards[i].start.Before(shards[i-1].end) {
			t.Fatalf("shards %d and %d ran at once on a one-worker manager: %v..%v overlaps %v..%v",
				i-1, i, shards[i-1].start, shards[i-1].end, shards[i].start, shards[i].end)
		}
	}
}

// TestManagerStorelessDrainFinishesCampaign: without a result store a
// drain has nothing durable to park a campaign in, so an in-flight
// sharded campaign runs to completion instead of ending resumable with
// its unstarted shards abandoned.
func TestManagerStorelessDrainFinishesCampaign(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, ProgressInterval: -1})
	j, err := m.Submit(CampaignRequest{
		Benchmark: "mult16",
		Faults:    FaultConfig{Polarity: true, StuckOn: true, IDDQ: true},
		Patterns:  64,
		Shards:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := m.Subscribe(j)
	defer cancel()
	for st := range ch {
		if st.Progress != nil && st.Progress.Shards == 8 {
			break // the first shard is running
		}
	}
	m.Drain()
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("drained store-less campaign ended %s (%s), want done", st.State, st.Error)
	}
	if rep, _, _ := j.Report(); rep == nil || rep.TransistorIDDQ == nil {
		t.Fatal("drained campaign has no report")
	}
	if left := m.Resumable(); len(left) != 0 {
		t.Fatalf("store-less manager lists %d resumable campaigns", len(left))
	}
}
