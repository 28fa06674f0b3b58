// Package workload holds the sizes and seeds the benchmark's workloads
// are built from, shared by the end-to-end and the traced programs so
// both measure the same inputs.
package workload

import "github.com/bgpsim/bgpsim/perfbench/lib/mrtgen"

// The world every solving workload runs on: the paper-scale synthetic
// internet (42,680 ASes after sibling contraction). It is fixed rather
// than derived from the run seed, so the run-to-run spread measures the
// program and not the topology; the seed varies the engine-checked
// Figure 2 cells, the query sequence and the MRT inputs.
const (
	WorldScale = 42697
	WorldSeed  = 1
)

// Procs is the GOMAXPROCS of every process doing the work, the worker
// count of the sweep and of hijackd, and the client count of the query
// loop; every benchmark process is also pinned to one CPU. On the 2-vCPU
// reference host the hypervisor stole 13-28% of the time while two
// vCPUs were busy and 2-6% while one was, and the same Figure 2 round
// ran at 341-531 cells/s with two workers against 259-290 with one (see
// README).
const Procs = 1

// Setups is how many times each run repeats its set-up; setup_s is the
// median.
const Setups = 3

// Fig2 sizes the fig2-sweep workload. A round is one Figure 2 panel:
// the five scenario targets against a fixed sample of Fig2Attackers
// attackers, drawn by the panel's own sampler from Fig2SampleSeed; the
// run seed picks only the cells re-solved on the message engine.
const (
	Fig2Attackers  = 200
	Fig2SampleSeed = 1
	// Fig2RoundsPerSecond scales the fixed round count with --seconds.
	Fig2RoundsPerSecond = 0.3
	// Fig2PointPasses is how many times every cell of the panel is
	// re-solved through Simulator.Hijack; the median of a cell's passes
	// is its latency, so p99_ms over the 1,000 cells has 10 samples
	// beyond it.
	Fig2PointPasses = 5
	// Fig2EngineCells is the seeded sample re-solved on the message
	// engine (Simulator.TraceHijack).
	Fig2EngineCells = 4
)

// Hijackd sizes the hijackd-mix workload.
const (
	// HotTargets is the hot target set, smaller than hijackd's default
	// snapshot cache of 64 so the timed phase never builds a snapshot.
	// The set is drawn from HotSeed, fixed so that every run serves the
	// same targets; the run seed draws the queries over it.
	HotTargets = 32
	HotSeed    = 1
	// CoreROV is the top-degree core that runs ROV (and ASPA) in the
	// defended shapes.
	CoreROV = 62
	// QueriesPerSecond scales the count of distinct queries with
	// --seconds: 1,200 at ten seconds, so 12 lie beyond p99_ms.
	QueriesPerSecond = 120
	// Passes is how many times the timed phase sends the whole query
	// sequence; ops_per_s is the median pass rate, and a query's latency
	// is the median of its passes.
	Passes = 5
	// EngineChecks is how many exact answers of each re-checked shape
	// (the first in the seeded query order) are re-solved in process.
	EngineChecks = 4
)

// MRT sizes the mrt-replay workload.
const (
	// UpdatesPerSecond scales the update stream with --seconds.
	UpdatesPerSecond = 160000
	// Rounds is how many times each run replays the stream.
	Rounds = 6
	// RIBSeed fixes the RIB dump, which does not depend on the run seed.
	RIBSeed    = 7
	RIBRoutes  = 2000
	RIBHijacks = 20
)

// MRTParams is the update-stream input set for seed at the reference
// run length of ten seconds.
func MRTParams(seed int64) mrtgen.Params {
	return MRTParamsFor(seed, 10)
}

// MRTParamsFor sizes the update stream for a run of seconds. Two peers
// give nproc sessions; the ROA share, the withdrawal share and the
// hijack counts are assumptions, not taken from a collector's feed.
func MRTParamsFor(seed int64, seconds int) mrtgen.Params {
	return mrtgen.Params{
		Seed:          seed,
		Peers:         2,
		Prefixes:      8000,
		ROAShare:      0.6,
		Updates:       UpdatesPerSecond * seconds / Rounds,
		OriginHijacks: 200,
		SubHijacks:    200,
		Decoys:        100,
	}
}
