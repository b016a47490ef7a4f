package service

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpsinw/internal/resultstore"
)

// TestCampaignEngineSelection runs the same benchmark campaign through
// both fault-simulation engines over the wire: each must succeed, tag
// its report with the engine used, produce identical coverage (the
// engines are differentially proven bit-identical), land in distinct
// cache entries, and show up in the per-engine job counters.
func TestCampaignEngineSelection(t *testing.T) {
	_, ts := newTestServer(t)
	reports := map[string]*CampaignReport{}
	keys := map[string]string{}
	for _, engine := range []string{"reference", "packed"} {
		st, code := postCampaign(t, ts, CampaignRequest{
			Benchmark: "fa_cp",
			Faults:    FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, Bridges: true, IDDQ: true},
			Engine:    engine,
		})
		if code != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d", engine, code)
		}
		if done := pollDone(t, ts, st.ID); done.State != StateDone {
			t.Fatalf("%s: state %s (%s)", engine, done.State, done.Error)
		}
		keys[engine] = st.Key
		var rep CampaignReport
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/report", &rep); code != http.StatusOK {
			t.Fatalf("%s report: HTTP %d", engine, code)
		}
		if rep.Engine != engine {
			t.Errorf("report engine = %q, want %q", rep.Engine, engine)
		}
		reports[engine] = &rep
	}
	if keys["reference"] == keys["packed"] {
		t.Errorf("engines share a cache key: %v", keys)
	}
	p, r := reports["packed"], reports["reference"]
	if p.StuckAt.Detected != r.StuckAt.Detected ||
		p.TransistorIDDQ.Detected != r.TransistorIDDQ.Detected ||
		p.TransistorIDDQ.Percent != r.TransistorIDDQ.Percent ||
		p.Bridges.Detected != r.Bridges.Detected ||
		p.Bridges.ByIDDQ != r.Bridges.ByIDDQ {
		t.Errorf("engines disagree: packed %+v/%+v/%+v vs reference %+v/%+v/%+v",
			p.StuckAt, p.TransistorIDDQ, p.Bridges, r.StuckAt, r.TransistorIDDQ, r.Bridges)
	}

	var metrics map[string]float64
	if code := getJSON(t, ts.URL+"/metrics?format=json", &metrics); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if metrics["jobs_engine_reference"] < 1 || metrics["jobs_engine_packed"] < 1 {
		t.Errorf("engine job counters = %v reference / %v packed, want >= 1 each",
			metrics["jobs_engine_reference"], metrics["jobs_engine_packed"])
	}
	// The engine counters are process-wide, so only sanity-check shape.
	if metrics["faultsim_packed_fault_runs"] < 1 || metrics["faultsim_packed_bridge_runs"] < 1 {
		t.Errorf("packed faultsim counters missing: %v fault runs, %v bridge runs",
			metrics["faultsim_packed_fault_runs"], metrics["faultsim_packed_bridge_runs"])
	}
	if metrics["faultsim_reference_fault_runs"] < 1 || metrics["faultsim_reference_bridge_runs"] < 1 {
		t.Errorf("reference faultsim counters missing: %v fault runs, %v bridge runs",
			metrics["faultsim_reference_fault_runs"], metrics["faultsim_reference_bridge_runs"])
	}
}

// TestCampaignEngineValidation rejects unknown engine names up front.
func TestCampaignEngineValidation(t *testing.T) {
	_, ts := newTestServer(t)
	_, code := postCampaign(t, ts, CampaignRequest{
		Benchmark: "c17",
		Faults:    FaultConfig{StuckAt: true},
		Engine:    "warp-drive",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", code)
	}
}

// TestLegacyEngineNames pins the wire compatibility of the retired
// engine names: "compiled" (the old default) and "auto" normalize to
// "packed" and share its content address, unknown names are still
// rejected, and a pending marker stored under the old "compiled" key
// recovers as resumable, resumes to done with its report on disk, and
// leaves no marker behind.
func TestLegacyEngineNames(t *testing.T) {
	base := CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}}
	packed := base
	packed.Engine = "packed"
	wantNorm, c, err := packed.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantKey := CanonicalKey(c, wantNorm)
	for _, name := range []string{"", "compiled", "auto"} {
		req := base
		req.Engine = name
		norm, c, err := req.Normalize()
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if norm.Engine != "packed" {
			t.Errorf("engine %q normalizes to %q, want packed", name, norm.Engine)
		}
		if key := CanonicalKey(c, norm); key != wantKey {
			t.Errorf("engine %q: key %s, want the packed key %s", name, key, wantKey)
		}
	}

	_, ts := newTestServer(t)
	if _, code := postCampaign(t, ts, CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}, Engine: "cone"}); code != http.StatusBadRequest {
		t.Errorf("unknown engine: HTTP %d, want 400", code)
	}

	// A marker as an older release wrote it: the request carries
	// "compiled" and is keyed by that canonical form.
	legacy := wantNorm
	legacy.Engine = "compiled"
	legacyKey := CanonicalKey(c, legacy)
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(resultstore.KindPending, legacyKey, pendingCampaign{Request: legacy, JobID: "c-000001"}); err != nil {
		t.Fatal(err)
	}

	m := NewManager(ManagerConfig{Workers: 1, ResultDir: dir})
	defer m.Close()
	recovered := m.Resumable()
	if len(recovered) != 1 || recovered[0].Key != legacyKey {
		t.Fatalf("recovered %+v, want the legacy marker as resumable", recovered)
	}
	nj, err := m.Resume(recovered[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, nj); fin.State != StateDone {
		t.Fatalf("resumed legacy campaign finished %s: %s", fin.State, fin.Error)
	}
	if nj.Key != wantKey {
		t.Errorf("resumed under key %s, want the packed key %s", nj.Key, wantKey)
	}
	if !store.Has(resultstore.KindReport, wantKey) {
		t.Error("resumed campaign is done but its report is not on disk")
	}
	if keys, _ := store.Keys(resultstore.KindPending); len(keys) != 0 {
		t.Errorf("orphan pending markers after resume: %v", keys)
	}
	if left := m.Resumable(); len(left) != 0 {
		t.Errorf("%d campaigns still listed resumable", len(left))
	}
}

// TestManagerReportPersistFailure: a campaign whose report cannot be
// written must not publish "done". It ends failed with the store error,
// keeps its pending marker for a restart, stays out of the LRU, and is
// counted.
func TestManagerReportPersistFailure(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(ManagerConfig{Workers: 1, ResultDir: dir})
	defer m.Close()
	// Replace the reports namespace with a plain file: every report
	// write now fails while shard and pending writes still succeed.
	reports := filepath.Join(dir, string(resultstore.KindReport))
	if err := os.RemoveAll(reports); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reports, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	req := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !strings.Contains(st.Error, "report not persisted") {
		t.Fatalf("state %s (%q), want failed with the store error", st.State, st.Error)
	}
	if !m.store.Has(resultstore.KindPending, j.Key) {
		t.Error("pending marker dropped after a failed report write")
	}
	if got := m.Metrics().ReportPersistFailed.Value(); got != 1 {
		t.Errorf("persist failures = %d, want 1", got)
	}
	if _, ok := m.Cache().Get(j.Key); ok {
		t.Error("unpersisted report published to the LRU")
	}
}
