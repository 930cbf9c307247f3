package main

import (
	"math"
	"time"
)

// The measured window is cut into blocks of whole rounds, about ten of
// them, and every end-to-end time metric is the median of its per-block
// values. A disturbance shorter than half the run (a neighbour's burst,
// a long collection) then moves a few blocks and not the result, and each
// block is set against the host speed read while it ran (speed.go), so a
// slow stretch inside a run is taken out where it happened.

// nominalBlocks is how many blocks a run is cut into when nothing about
// the workload says otherwise.
const nominalBlocks = 10

// blockLen is the number of rounds per block for a measured window of
// rounds rounds. The chaos workload's blocks are its fault cycles, so
// that every block holds the same mix of clean, faulted and healing
// rounds.
func blockLen(s spec, rounds int) int {
	if s.name == "inproc-chaos" {
		return chaosCycle
	}
	if n := int(math.Ceil(float64(rounds) / nominalBlocks)); n > 1 {
		return n
	}
	return 1
}

// block is one block of the measured window. The JSON fields are what
// the child reports, for whoever wants to see inside a run.
type block struct {
	Rounds int `json:"rounds"`
	// Speed is the host's speed while the block ran (1 = the reference).
	Speed float64 `json:"host_speed"`
	// Samples is the number of valid transactions submitted in the block
	// and seen committed (whenever that happened).
	Samples int     `json:"samples"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	TPS     float64 `json:"tps"`
	CPUUS   float64 `json:"cpu_us_per_tx"`

	wall time.Duration // measured time: Σ submit+RunRound, or the block's span of the schedule
	cpu  time.Duration // CPU time over the same
}

// derive fills the block's metrics from its latency samples and its
// wall and CPU time. CPU per transaction is always put at the reference
// speed. Latency and throughput are too when the processor sets them; a
// wall-clock schedule's (s.clockBound) are left as read.
func (b *block) derive(latencyMS []float64, s spec) {
	cpu := atReference(b.Speed, s.speedShare)
	clock := cpu
	if s.clockBound {
		clock = 1
	}
	n := float64(len(latencyMS))
	b.Samples = len(latencyMS)
	b.P50MS = percentile(latencyMS, 50) * clock
	b.P95MS = percentile(latencyMS, 95) * clock
	b.TPS = ratio(n, b.wall.Seconds()*clock)
	b.CPUUS = ratio(us(b.cpu), n) * cpu
}

// deriveBlocks derives every block from the latency samples the account
// filed under it (a block nothing committed from has none).
func deriveBlocks(blocks []block, latencyMS [][]float64, s spec) {
	for i := range blocks {
		var samples []float64
		if i < len(latencyMS) {
			samples = latencyMS[i]
		}
		blocks[i].derive(samples, s)
	}
}

// blockMedian is the median over the blocks that saw transactions of
// one per-block value.
func blockMedian(blocks []block, value func(*block) float64) float64 {
	vals := make([]float64, 0, len(blocks))
	for i := range blocks {
		if blocks[i].Samples > 0 {
			vals = append(vals, value(&blocks[i]))
		}
	}
	return median(vals)
}
