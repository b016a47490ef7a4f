package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// The packed stuck-at kernel (event-driven propagation over binary lane
// blocks, fault packing into spare lanes) must be bit-identical to the
// full re-simulation oracle: same Detection method and first detecting
// pattern, and the same captured output-signature rows, on every
// circuit, pattern count and lane width. The pattern counts cross the
// grouped/chunked boundary (32w patterns) and the 64/128/256-lane
// chunk edges; the partial patterns leave inputs missing or X, which
// both engines simulate as 0.

// stuckAtDiffCounts are the campaign pattern counts of the wall.
var stuckAtDiffCounts = []int{1, 7, 20, 33, 64, 65, 100, 129, 200, 300}

// partialPatterns draws binary patterns with a fraction of the inputs
// left undriven: three in four of those are missing from the map, the
// rest an explicit X.
func partialPatterns(rng *rand.Rand, c *logic.Circuit, n int, undriven float64) []Pattern {
	out := make([]Pattern, n)
	for k := range out {
		p := Pattern{}
		for _, pi := range c.Inputs {
			switch {
			case rng.Float64() >= undriven:
				p[pi] = logic.FromBool(rng.Intn(2) == 1)
			case rng.Intn(4) == 0:
				p[pi] = logic.LX
			}
		}
		out[k] = p
	}
	return out
}

// runStuckAtCase runs one campaign, with a signature capture when
// capture is set.
func runStuckAtCase(c *logic.Circuit, eng Engine, laneWords int, faults []core.Fault, pats []Pattern, capture bool) ([]Detection, *SignatureCapture) {
	s := New(c)
	s.Engine = eng
	s.LaneWords = laneWords
	var sig *SignatureCapture
	if capture {
		sig = NewSignatureCapture(len(faults), len(pats))
		s.Signatures = sig
	}
	return s.RunStuckAt(faults, pats), sig
}

// diffStuckAt compares one packed campaign against the oracle's.
func diffStuckAt(t *testing.T, label string, faults []core.Fault, want, got []Detection, wantSig, gotSig *SignatureCapture) {
	t.Helper()
	diffDetections(t, label, want, got)
	if wantSig == nil {
		return
	}
	for i := range faults {
		w, g := wantSig.Out(i), gotSig.Out(i)
		for j := range w {
			if w[j] != g[j] {
				t.Errorf("%s: fault %v: out row word %d: reference %016x, packed %016x", label, faults[i], j, w[j], g[j])
				break
			}
		}
		for j, m := range gotSig.Leak(i) {
			if m != 0 {
				t.Errorf("%s: fault %v: leak row word %d = %016x, stuck-at has no IDDQ signature", label, faults[i], j, m)
				break
			}
		}
	}
}

// stuckAtWall runs the full pattern-count x lane-width x capture grid
// on one circuit and fault list, both with binary and with partial
// patterns.
func stuckAtWall(t *testing.T, c *logic.Circuit, faults []core.Fault, seed int64, counts []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, undriven := range []float64{0, 0.2} {
		all := partialPatterns(rng, c, counts[len(counts)-1], undriven)
		for _, n := range counts {
			pats := all[:n]
			for _, capture := range []bool{false, true} {
				want, wantSig := runStuckAtCase(c, EngineReference, 0, faults, pats, capture)
				for _, lw := range []int{0, 1, 2, 4} {
					got, gotSig := runStuckAtCase(c, EnginePacked, lw, faults, pats, capture)
					label := fmt.Sprintf("%s/undriven%.1f/%dpats/lw%d/capture=%v", c.Name, undriven, n, lw, capture)
					diffStuckAt(t, label, faults, want, got, wantSig, gotSig)
				}
			}
		}
	}
}

// TestStuckAtDifferentialNamed walls the named circuits: c17, mult3 and
// c432 with their whole line-fault universe over every pattern count;
// mult16 (5984 line faults) with a stride sample over every count and
// its whole universe at the 64 patterns of the campaign benchmark.
func TestStuckAtDifferentialNamed(t *testing.T) {
	for _, name := range []string{"c17", "mult3", "c432", "mult16"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := core.Universe(c, core.ClassicalOnly())
		if name != "mult16" {
			stuckAtWall(t, c, faults, int64(len(name)), stuckAtDiffCounts)
			continue
		}
		counts := stuckAtDiffCounts
		if testing.Short() {
			counts = []int{7, 64, 129}
		}
		stuckAtWall(t, c, strideSample(faults, 400), 16, counts)
		stuckAtWall(t, c, faults, 64, []int{64})
	}
}

// TestStuckAtDifferentialRandom walls generator circuits with mixed
// fault lists: the line universe, transistor faults the sweep must
// drop, and line faults naming a net, gate or pin the circuit lacks,
// which neither engine may detect.
func TestStuckAtDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases := 8
	if testing.Short() {
		cases = 3
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(7), 1+rng.Intn(40))
		faults := core.Universe(c, core.ClassicalOnly())
		faults = append(faults, subsample(rng, core.Universe(c, core.UniverseOptions{StuckOn: true}), 4)...)
		faults = append(faults,
			core.Fault{Kind: core.FaultSA1, Net: "no_such_net", GateIdx: -1, Pin: -1},
			core.Fault{Kind: core.FaultSA0, Net: c.Gates[0].Fanin[0], GateIdx: 0, Pin: 7},
			core.Fault{Kind: core.FaultSA1, Net: c.Gates[0].Fanin[0], GateIdx: len(c.Gates), Pin: 0},
		)
		rng.Shuffle(len(faults), func(a, b int) { faults[a], faults[b] = faults[b], faults[a] })
		counts := stuckAtDiffCounts
		if testing.Short() {
			counts = []int{1, 33, 65, 129, 300}
		}
		stuckAtWall(t, c, faults, rng.Int63(), counts)
	}
}

// strideSample keeps n faults spread evenly over the list, in order.
func strideSample(faults []core.Fault, n int) []core.Fault {
	if len(faults) <= n {
		return faults
	}
	out := make([]core.Fault, n)
	for i := range out {
		out[i] = faults[i*len(faults)/n]
	}
	return out
}

// TestStuckAtProgressAndCounters: on both engines the stuck_at stage
// reports a monotone per-fault progress stream ending at Done == Total
// == len(faults), non-line faults counted as Dropped, and the sweep's
// work lands in the process-wide engine counters behind
// cpsinw_faultsim_fault_runs_total and cpsinw_faultsim_gate_evals_total.
func TestStuckAtProgressAndCounters(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	lines := core.Universe(c, core.ClassicalOnly())
	faults := append(append([]core.Fault(nil), lines...), core.Universe(c, core.UniverseOptions{StuckOn: true})[:5]...)
	all := partialPatterns(rand.New(rand.NewSource(432)), c, 100, 0)
	for _, eng := range allEngines {
		for _, cs := range []struct {
			pats    []Pattern // 20 patterns run fault-packed, 100 chunked
			capture bool
		}{{all[:20], false}, {all[:20], true}, {all, false}, {all, true}} {
			pats, capture := cs.pats, cs.capture
			s := New(c)
			s.Engine = eng
			if capture {
				s.Signatures = NewSignatureCapture(len(faults), len(pats))
			}
			var snaps []Progress
			s.Progress = func(p Progress) { snaps = append(snaps, p) }
			before := ReadEngineStats()
			out := s.RunStuckAt(faults, pats)
			after := ReadEngineStats()
			label := fmt.Sprintf("%v/%dpats/capture=%v", eng, len(pats), capture)

			if len(snaps) == 0 {
				t.Fatalf("%s: no progress snapshots", label)
			}
			if first := snaps[0]; first.Stage != "stuck_at" || first.Done != 0 || first.Total != len(faults) {
				t.Errorf("%s: initial snapshot = %+v, want stage stuck_at, 0/%d", label, first, len(faults))
			}
			for i := 1; i < len(snaps); i++ {
				a, b := snaps[i-1], snaps[i]
				if b.Done < a.Done || b.Detected < a.Detected || b.Dropped < a.Dropped || b.GateEvals < a.GateEvals || b.Total != a.Total {
					t.Fatalf("%s: snapshot %d not monotone: %+v -> %+v", label, i, a, b)
				}
			}
			last := snaps[len(snaps)-1]
			detected := Summarise(out).Detected
			if last.Done != len(faults) || last.Total != len(faults) || last.Detected != detected || last.Dropped != 5 {
				t.Errorf("%s: final snapshot %+v, want Done = Total = %d, Detected %d, Dropped 5", label, last, len(faults), detected)
			}

			runs, evals := after.PackedFaultRuns-before.PackedFaultRuns, after.PackedGateEvals-before.PackedGateEvals
			if eng == EngineReference {
				runs, evals = after.ReferenceFaultRuns-before.ReferenceFaultRuns, after.ReferenceGateEvals-before.ReferenceGateEvals
			}
			if runs != uint64(len(lines)) {
				t.Errorf("%s: fault runs counter moved by %d, want %d line faults", label, runs, len(lines))
			}
			if evals == 0 || evals > last.GateEvals {
				t.Errorf("%s: gate evals counter moved by %d, want > 0 and <= the %d the stage reported", label, evals, last.GateEvals)
			}
		}
	}
}
