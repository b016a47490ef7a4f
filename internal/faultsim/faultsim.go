// Package faultsim provides the fault simulation engines of the
// reproduction: one bit-parallel, event-driven packed kernel for
// classical line stuck-at faults (binary lanes, forced site planes) and
// for the CP transistor faults (ternary lanes, behaviour-table
// injection for channel break, stuck-on and the paper's stuck-at n-type
// / p-type polarity faults), IDDQ observability, and sequence-aware
// two-pattern simulation for stuck-open testing, with full
// re-simulation (stuck-at) and a serial switch-level engine
// (transistor faults) kept as the differential oracles.
package faultsim

import (
	"context"
	"fmt"
	"sync"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// Pattern assigns a logic value to every primary input (missing inputs
// default to X in ternary simulation, 0 in stuck-at simulation).
type Pattern map[string]logic.V

// DetectMethod records how a fault was caught.
type DetectMethod string

const (
	ByNone       DetectMethod = ""
	ByOutput     DetectMethod = "output"
	ByIDDQ       DetectMethod = "iddq"
	ByTwoPattern DetectMethod = "two-pattern"
)

// Detection is the outcome for one fault.
type Detection struct {
	Fault   core.Fault
	Method  DetectMethod
	Pattern int // index of the (first) detecting pattern or pair
}

// Detected reports whether the fault was caught by any method.
func (d Detection) Detected() bool { return d.Method != ByNone }

// Simulator runs fault campaigns on one circuit.
type Simulator struct {
	C *logic.Circuit

	// Engine selects the stuck-at, transistor-fault and bridge
	// implementation; the zero value is the packed engine,
	// EngineReference the oracles.
	Engine Engine

	// LaneWords, when 1, 2 or 4, pins the packed engine's lane-block
	// width (64, 128 or 256 ternary lanes per propagation pass). Any
	// other value lets each campaign pick a width from its pattern and
	// fault counts.
	LaneWords int

	// Progress, when set, receives monotone per-stage campaign snapshots
	// from every engine driver (see ProgressFunc for the delivery
	// contract). Set it before starting a campaign; drivers capture it
	// once at entry.
	Progress ProgressFunc

	// Signatures, when set, harvests per-fault pattern-detection bitsets
	// from the next campaign run (RunStuckAt* or the transistor
	// entry points). It must be sized for exactly that campaign's fault
	// and pattern counts; fault dropping is disabled while capturing so
	// the full signature is observed, and the returned Detections stay
	// bit-identical to an uncaptured run. Set it before starting the
	// campaign and clear it afterwards; drivers capture it once at entry.
	Signatures *SignatureCapture

	gateIdx map[string]int // instance name -> index

	ccOnce sync.Once
	cc     *logic.CompiledCircuit

	// Packed-engine scratch pool: the buffers and the scratch-local
	// LUT-resolution caches stay warm across campaigns.
	scratchPool sync.Pool
}

// New builds a simulator for the circuit.
func New(c *logic.Circuit) *Simulator {
	s := &Simulator{C: c, gateIdx: map[string]int{}}
	for i, g := range c.Gates {
		s.gateIdx[g.Name] = i
	}
	return s
}

// NewCompiled builds a simulator over an already compiled circuit. A
// CompiledCircuit is immutable, so one compilation can back any number
// of simulators, including concurrently running ones.
func NewCompiled(cc *logic.CompiledCircuit) *Simulator {
	s := New(cc.C)
	s.ccOnce.Do(func() { s.cc = cc })
	return s
}

// packBinaryChunk packs up to 64 patterns into binary input planes over
// the compiled input order: missing or X inputs pack as 0 (the
// historical packed stuck-at semantics), and every lane is fully known,
// so ternary block evaluation degenerates to plain binary simulation.
func (s *Simulator) packBinaryChunk(patterns []Pattern) []logic.PackedVec {
	in := make([]logic.PackedVec, len(s.C.Inputs))
	for k, p := range patterns {
		for i, pi := range s.C.Inputs {
			if v, ok := p[pi]; ok && v == logic.L1 {
				in[i].Val |= 1 << uint(k)
			}
		}
	}
	for i := range in {
		in[i].Known = ^uint64(0)
	}
	return in
}

// evalStuckAtPacked evaluates one 64-pattern chunk with a line stuck-at
// fault forced over the compiled IR: a stem fault overrides the net's
// plane wherever the net is produced (primary input or gate output), a
// pin fault overrides a single gate's fanin read.
func evalStuckAtPacked(cc *logic.CompiledCircuit, in []logic.PackedVec, f core.Fault, force logic.PackedVec, vals []logic.PackedVec) {
	stem := -1
	if f.Pin < 0 {
		if id, ok := cc.NetID[f.Net]; ok {
			stem = id
		}
	}
	for i, id := range cc.InputID {
		v := in[i]
		if id == stem {
			v = force
		}
		vals[id] = v
	}
	var buf [3]logic.PackedVec
	for _, gi := range cc.Order {
		fin := cc.Fanin[gi]
		for k, nid := range fin {
			v := vals[nid]
			if gi == f.GateIdx && k == f.Pin {
				v = force
			}
			buf[k] = v
		}
		on := cc.GateOut[gi]
		nv := logic.EvalKindPacked(cc.Kinds[gi], cc.LUT[gi], buf[:len(fin)])
		if on == stem {
			nv = force
		}
		vals[on] = nv
	}
}

// RunStuckAt fault-simulates line stuck-at faults against the pattern
// set. Missing and X inputs simulate as 0 (the faults are binary line
// faults; ATPG hands in partial PODEM patterns on purpose). Non-line
// faults in the list are returned undetected. The simulator's Engine
// selects the implementation: the packed event-driven kernel by
// default, full-circuit re-simulation per fault under EngineReference;
// both return identical detections and signatures.
func (s *Simulator) RunStuckAt(faults []core.Fault, patterns []Pattern) []Detection {
	out, _ := s.RunStuckAtContext(context.Background(), faults, patterns)
	return out
}

// RunStuckAtContext is RunStuckAt with cooperative cancellation checked
// between faults (and between fault-packed batches); on cancellation it
// returns the context's error. Progress is reported per fault on the
// "stuck_at" stage, non-line faults counting as Dropped.
func (s *Simulator) RunStuckAtContext(ctx context.Context, faults []core.Fault, patterns []Pattern) ([]Detection, error) {
	if s.Engine == EngineReference {
		return s.runStuckAtReference(ctx, faults, patterns)
	}
	return s.runPacked(ctx, s.stuckAtClass(), faults, patterns)
}

// runStuckAtReference is the stuck-at oracle: every line fault
// re-simulates the whole circuit (evalStuckAtPacked) once per 64-pattern
// chunk until its first detecting chunk, or over every chunk while
// capturing signatures.
func (s *Simulator) runStuckAtReference(ctx context.Context, faults []core.Fault, patterns []Pattern) ([]Detection, error) {
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, err
		}
	}
	sink := s.progressSink("stuck_at", len(faults))
	cc := s.compiled()
	nGates := uint64(len(s.C.Gates))
	type chunk struct {
		in, good []logic.PackedVec
		valid    uint64
	}
	var chunks []chunk
	for base := 0; base < len(patterns); base += 64 {
		ch := patterns[base:min(base+64, len(patterns))]
		in := s.packBinaryChunk(ch)
		valid := ^uint64(0)
		if len(ch) < 64 {
			valid = (1 << uint(len(ch))) - 1
		}
		chunks = append(chunks, chunk{in, cc.EvalPacked(in, make([]logic.PackedVec, cc.NumNets())), valid})
	}
	// Baseline (good-circuit) evals count toward campaign progress but
	// not the per-engine faulty-evaluation counters, as in every sweep.
	sink.add(0, 0, 0, uint64(len(chunks))*nGates)
	out := make([]Detection, len(faults))
	faulty := make([]logic.PackedVec, cc.NumNets())
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = Detection{Fault: f, Pattern: -1}
		if !f.Kind.IsLineFault() {
			sink.add(1, 0, 1, 0)
			continue
		}
		force := logic.ConstPacked(logic.L0)
		if f.Kind == core.FaultSA1 {
			force = logic.ConstPacked(logic.L1)
		}
		evals := uint64(0)
		for ci, ch := range chunks {
			evalStuckAtPacked(cc, ch.in, f, force, faulty)
			evals += nGates
			var diff uint64
			for _, po := range cc.OutputID {
				diff |= logic.DefiniteDiffMask(ch.good[po], faulty[po]) & ch.valid
			}
			if diff == 0 {
				continue
			}
			if sig != nil {
				sig.orOutWord(i, 64*ci, diff)
			}
			if !out[i].Detected() {
				out[i].Method = ByOutput
				out[i].Pattern = 64*ci + logic.FirstLane(diff)
			}
			if sig == nil {
				break // fault dropping: off while capturing signatures
			}
		}
		engineStats.referenceFaultRuns.Add(1)
		engineStats.referenceGateEvals.Add(evals)
		sink.add(1, b2i(out[i].Detected()), 0, evals)
	}
	return out, nil
}

// transistorHooks builds the ternary gate-override hook for a transistor
// fault plus a leak observer; floating rows evaluate to X (single-pattern
// semantics: the retained charge is unknown).
func (s *Simulator) transistorHooks(f core.Fault, leak *bool) (logic.TernaryHooks, error) {
	tf, ok := f.Kind.TFault()
	if !ok {
		return logic.TernaryHooks{}, fmt.Errorf("faultsim: %v has no switch-level model", f.Kind)
	}
	gi, ok := s.gateIdx[f.Gate]
	if !ok {
		return logic.TernaryHooks{}, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
	}
	kind := s.C.Gates[gi].Kind
	beh, err := core.GateBehavior(kind, f.Transistor, tf)
	if err != nil {
		return logic.TernaryHooks{}, err
	}
	return logic.TernaryHooks{
		Gate: func(idx int, in []logic.V) (logic.V, bool) {
			if idx != gi {
				return logic.LX, false
			}
			vec := 0
			for i, v := range in {
				b, def := v.Bool()
				if !def {
					return logic.LX, true // X at a faulty gate input: give up precision
				}
				if b {
					vec |= 1 << uint(i)
				}
			}
			row := beh.Rows[vec]
			if row.Leak && leak != nil {
				*leak = true
			}
			if row.Floating {
				return logic.LX, true
			}
			return row.Out, true
		},
	}, nil
}

// RunTransistor fault-simulates transistor faults over the pattern set.
// Output differences at POs detect by voltage; when useIDDQ is set, a
// leak signature detects by quiescent-current measurement (the paper's
// IDDQ observability for pull-up polarity faults). The simulator's
// Engine selects the implementation: bit-parallel PPSFP lane blocks by
// default, the serial hooked oracle under EngineReference; both return
// identical detections. RunTransistorParallel spreads the same work
// over a goroutine pool.
func (s *Simulator) RunTransistor(faults []core.Fault, patterns []Pattern, useIDDQ bool) ([]Detection, error) {
	if s.Engine == EngineReference {
		return s.runTransistorSerial(context.Background(), faults, patterns, useIDDQ)
	}
	return s.runPacked(context.Background(), s.transistorClass(useIDDQ), faults, patterns)
}

// outputsDiffer reports a definite PO mismatch (X never counts).
func (s *Simulator) outputsDiffer(good, faulty map[string]logic.V) bool {
	for _, po := range s.C.Outputs {
		g, gok := good[po].Bool()
		f, fok := faulty[po].Bool()
		if gok && fok && g != f {
			return true
		}
	}
	return false
}

// RunTwoPattern simulates pattern pairs against channel-break faults with
// charge retention at the faulty gate: the first pattern initialises the
// gate output, the second exposes a floating output retaining the stale
// value. Detection requires a definite PO difference under the second
// pattern. The simulator's Engine selects the implementation: packed
// block propagation of the stuck-open transition LUTs by default, the
// stateful switch-level oracle under EngineReference.
func (s *Simulator) RunTwoPattern(faults []core.Fault, pairs [][2]Pattern) ([]Detection, error) {
	return s.RunTwoPatternContext(context.Background(), faults, pairs)
}

// RunTwoPatternContext is RunTwoPattern with cooperative cancellation
// checked between faults on both engine paths; both report per-fault
// progress on the "two_pattern" stage.
func (s *Simulator) RunTwoPatternContext(ctx context.Context, faults []core.Fault, pairs [][2]Pattern) ([]Detection, error) {
	if s.Engine != EngineReference {
		return s.runTwoPatternPacked(ctx, faults, pairs)
	}
	sink := s.progressSink("two_pattern", len(faults))
	out := make([]Detection, len(faults))
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = Detection{Fault: f, Pattern: -1}
		tf, ok := f.Kind.TFault()
		if !ok || tf != logic.TFaultOpen {
			sink.add(1, 0, 1, 0)
			continue
		}
		gi, ok := s.gateIdx[f.Gate]
		if !ok {
			return nil, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
		}
		spec := gates.Get(s.C.Gates[gi].Kind)
		nGates := uint64(len(s.C.Gates))
		evals := uint64(0)
		for k, pair := range pairs {
			evals += 3 * nGates // two faulty passes plus the good baseline
			if s.twoPatternDetects(spec, gi, f, pair) {
				out[i].Method = ByTwoPattern
				out[i].Pattern = k
				break
			}
		}
		sink.add(1, b2i(out[i].Detected()), 0, evals)
	}
	return out, nil
}

// twoPatternDetects runs one init/test pair against one channel break.
func (s *Simulator) twoPatternDetects(spec *gates.Spec, gi int, f core.Fault, pair [2]Pattern) bool {
	faults := map[string]logic.TFault{f.Transistor: logic.TFaultOpen}
	var prev map[string]logic.V

	evalFaulty := func(p Pattern) map[string]logic.V {
		hooks := logic.TernaryHooks{
			Gate: func(idx int, in []logic.V) (logic.V, bool) {
				if idx != gi {
					return logic.LX, false
				}
				res := logic.EvalSwitch(spec, in, faults, prev)
				prev = res.Nodes
				return res.Out, true
			},
		}
		return s.C.EvalHooked(map[string]logic.V(p), hooks)
	}

	evalFaulty(pair[0]) // initialisation pattern
	faulty := evalFaulty(pair[1])
	good := s.C.Eval(map[string]logic.V(pair[1]))
	return s.outputsDiffer(good, faulty)
}

// Coverage summarises a detection list.
type Coverage struct {
	Total      int
	Detected   int
	ByOutput   int
	ByIDDQ     int
	ByTwoPat   int
	Undetected []core.Fault
}

// Summarise builds coverage statistics.
func Summarise(ds []Detection) Coverage {
	var c Coverage
	for _, d := range ds {
		c.Total++
		switch d.Method {
		case ByOutput:
			c.Detected++
			c.ByOutput++
		case ByIDDQ:
			c.Detected++
			c.ByIDDQ++
		case ByTwoPattern:
			c.Detected++
			c.ByTwoPat++
		default:
			c.Undetected = append(c.Undetected, d.Fault)
		}
	}
	return c
}

// Percent returns the fault coverage in percent.
func (c Coverage) Percent() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// ExhaustivePatterns enumerates all 2^n input patterns of a circuit
// (intended for small circuits; callers should bound n).
func ExhaustivePatterns(c *logic.Circuit) []Pattern {
	n := len(c.Inputs)
	out := make([]Pattern, 0, 1<<uint(n))
	for v := 0; v < 1<<uint(n); v++ {
		p := Pattern{}
		for i, pi := range c.Inputs {
			p[pi] = logic.FromBool(v>>uint(i)&1 == 1)
		}
		out = append(out, p)
	}
	return out
}
