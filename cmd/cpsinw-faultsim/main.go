// Command cpsinw-faultsim runs fault simulation campaigns on a gate-level
// circuit (.bench format on stdin or a built-in benchmark by name): the
// classical stuck-at model, the paper's CP transistor faults with and
// without IDDQ observation, and the Table III exhaustive polarity study
// when the circuit is a single XOR2.
//
// Usage:
//
//	cpsinw-faultsim [-circuit name | < netlist.bench] [-patterns n] [-engine auto]
//	cpsinw-faultsim [-shards k] [-result-dir path]   sharded campaign with durable shard reuse
//	cpsinw-faultsim -tableiii
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/experiments"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/service"
	"cpsinw/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpsinw-faultsim: ")

	circuitName := flag.String("circuit", "", "built-in benchmark name (empty: read .bench from stdin)")
	patterns := flag.Int("patterns", 256, "random patterns (exhaustive when inputs <= 12)")
	tableIII := flag.Bool("tableiii", false, "run the paper's Table III polarity study on the XOR2 and exit")
	seed := flag.Int64("seed", 1, "random pattern seed")
	engineName := flag.String("engine", "packed", "fault-simulation engine: packed or reference")
	list := flag.Bool("list", false, "list built-in benchmarks and exit")
	shards := flag.Int("shards", 1, "run the service campaign path with k sub-jobs merged bit-identically (0: auto-size); 1 without -result-dir prints the direct simulation tables instead")
	resultDir := flag.String("result-dir", "", "durable result store; completed shards are reused across runs (empty disables)")
	flag.Parse()

	engine, err := faultsim.ParseEngine(*engineName)
	if err != nil {
		log.Fatal(err)
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		fmt.Println("# ISCAS-scale reconstructions (internal/bench/testdata/iscas):")
		for _, n := range bench.ISCASNames() {
			fmt.Println(n)
		}
		fmt.Println("# parameterized families (any size):")
		for _, f := range bench.Families() {
			fmt.Println(f)
		}
		return
	}
	if *tableIII {
		r, err := experiments.TableIII(true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(r.Report())
		return
	}

	var c *logic.Circuit
	var netlistSrc string
	if *circuitName != "" {
		var err error
		c, err = bench.Get(*circuitName)
		if err != nil {
			log.Fatalf("%v (use -list)", err)
		}
	} else {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		netlistSrc = string(raw)
		c, err = logic.ParseBench("stdin", strings.NewReader(netlistSrc))
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("circuit: %s  %s\n\n", c.Name, c.Statistics())

	if *shards != 1 || *resultDir != "" {
		runSharded(*circuitName, netlistSrc, *patterns, *seed, *engineName, *shards, *resultDir)
		return
	}

	pats := service.BuildPatterns(c, *patterns, *seed)
	sim := faultsim.New(c)
	sim.Engine = engine

	saFaults := core.Universe(c, core.ClassicalOnly())
	saCov := faultsim.Summarise(sim.RunStuckAt(saFaults, pats))

	trUniverse := core.Universe(c, core.UniverseOptions{ChannelBreak: true, Polarity: true, StuckOn: true})
	noIDDQ, err := sim.RunTransistor(trUniverse, pats, false)
	if err != nil {
		log.Fatal(err)
	}
	withIDDQ, err := sim.RunTransistor(trUniverse, pats, true)
	if err != nil {
		log.Fatal(err)
	}
	covNo := faultsim.Summarise(noIDDQ)
	covYes := faultsim.Summarise(withIDDQ)

	t := report.Table{
		Title:   fmt.Sprintf("fault simulation with %d patterns", len(pats)),
		Headers: []string{"model", "faults", "detected", "coverage"},
	}
	t.Add("classical stuck-at", saCov.Total, saCov.Detected, fmt.Sprintf("%.1f%%", saCov.Percent()))
	t.Add("CP transistor (voltage only)", covNo.Total, covNo.Detected, fmt.Sprintf("%.1f%%", covNo.Percent()))
	t.Add("CP transistor (+IDDQ)", covYes.Total, covYes.Detected, fmt.Sprintf("%.1f%%", covYes.Percent()))
	fmt.Print(t.String())

	if len(covYes.Undetected) > 0 {
		fmt.Printf("\nundetected CP faults (%d):\n", len(covYes.Undetected))
		for i, f := range covYes.Undetected {
			if i == 20 {
				fmt.Printf("  ... and %d more\n", len(covYes.Undetected)-20)
				break
			}
			fmt.Printf("  %v\n", f)
		}
	}
}

// runSharded routes the campaign through the service's campaign path:
// fault lists split into content-addressed sub-jobs whose merged
// results are the same for every shard count, and -result-dir reuses
// completed shards across invocations of the same campaign.
func runSharded(benchmark, netlist string, patterns int, seed int64, engine string, shards int, resultDir string) {
	req := service.CampaignRequest{
		Benchmark: benchmark,
		Netlist:   netlist,
		Faults: service.FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true,
		},
		Patterns: patterns,
		Seed:     seed,
		Engine:   engine,
		Shards:   shards,
	}
	norm, c, err := req.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	opt := service.ShardedOptions{Key: service.CanonicalKey(c, norm), Shards: norm.Shards}
	var scheduled, hits atomic.Int64 // callbacks fire on scheduler goroutines
	opt.Events = shard.Events{Scheduled: func(shard.SubJob) { scheduled.Add(1) }}
	opt.OnCacheHit = func(shard.SubJob) { hits.Add(1) }
	if resultDir != "" {
		store, err := resultstore.Open(resultDir)
		if err != nil {
			log.Fatal(err)
		}
		opt.Store = store
	}
	rep, err := service.RunCampaignSharded(context.Background(), c, norm, opt, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range rep.Tables {
		fmt.Print(t.String())
		fmt.Println()
	}
	fmt.Printf("campaign %s: %d shards (%d reused from store), %d ms\n",
		opt.Key[:12], scheduled.Load(), hits.Load(), rep.ElapsedMS)
}
