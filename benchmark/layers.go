package main

import (
	"repchain"
	"repchain/internal/metrics"
)

// deltaSnapshot is after − before for counters, gauges and histogram
// buckets. The sigcache, codec-pool and chaos gauges the engine
// publishes are cumulative, so their difference is the window's count.
// A name missing from before counts from zero.
func deltaSnapshot(before, after metrics.Snapshot) metrics.Snapshot {
	d := metrics.Snapshot{
		Counters:   make(map[string]int64, len(after.Counters)),
		Gauges:     make(map[string]float64, len(after.Gauges)),
		Histograms: make(map[string]metrics.HistogramSnapshot, len(after.Histograms)),
	}
	for n, v := range after.Counters {
		d.Counters[n] = v - before.Counters[n]
	}
	for n, v := range after.Gauges {
		d.Gauges[n] = v - before.Gauges[n]
	}
	for n, h := range after.Histograms {
		b, ok := before.Histograms[n]
		dh := metrics.HistogramSnapshot{
			Bounds: h.Bounds,
			Counts: append([]int64(nil), h.Counts...),
			Count:  h.Count,
			Sum:    h.Sum,
		}
		if ok && len(b.Counts) == len(h.Counts) {
			for i := range dh.Counts {
				dh.Counts[i] -= b.Counts[i]
			}
			dh.Count -= b.Count
			dh.Sum -= b.Sum
		}
		d.Histograms[n] = dh
	}
	return d
}

// counterDeltas flattens a window's counter and gauge deltas for the
// trace file.
func counterDeltas(d metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(d.Counters)+len(d.Gauges))
	for n, v := range d.Counters {
		out[n] = float64(v)
	}
	for n, v := range d.Gauges {
		out[n] = v
	}
	return out
}

// stages are the round.stage_seconds labels the ladder reports.
var stages = []string{"upload", "screen", "elect", "pack", "commit", "argue"}

// deriveLayers fills the per-layer metrics that come from the
// registry's counters over the measured window (d), governor 0's
// screening counters, and the number of transactions submitted in the
// window. A counter the registry does not hold leaves its metric
// absent.
func deriveLayers(p map[string]float64, d metrics.Snapshot, s0, s1 repchain.GovernorStats, txs float64) {
	g := d.Gauges
	if _, ok := g["sigcache.misses"]; ok {
		verified := g["sigcache.misses"] + g["sigcache.batch_verified"]
		answered := g["sigcache.hits"] + g["sigcache.batch_hits"] + g["sigcache.batch_deduped"]
		p["crypto.verifies_per_tx"] = ratio(verified, txs)
		p["crypto.sigcache_hit_rate"] = ratio(answered, answered+verified)
	}
	if gets, ok := g["codec.pool_gets"]; ok {
		p["codec.pool_miss_rate"] = ratio(g["codec.pool_misses"], gets)
	}
	for _, st := range stages {
		if h, ok := d.Histograms[`round.stage_seconds{stage="`+st+`"}`]; ok && h.Count > 0 {
			p["core.stage_"+st+"_p50_ms"] = h.Quantile(0.5) * 1000
		}
	}
	p["node.reports_per_tx"] = ratio(float64(s1.ReportsReceived-s0.ReportsReceived), txs)
	checked, unchecked := float64(s1.Checked-s0.Checked), float64(s1.Unchecked-s0.Unchecked)
	p["node.checked_per_tx"] = ratio(checked, txs)
	p["node.unchecked_share"] = ratio(unchecked, checked+unchecked)
	argues := float64(s1.ArguesAccepted - s0.ArguesAccepted + s1.ArguesRejected - s0.ArguesRejected)
	p["node.argues_per_ktx"] = ratio(argues, txs) * 1000
	p["node.expired_per_ktx"] = ratio(float64(s1.Expired-s0.Expired), txs) * 1000

	c := d.Counters
	if _, ok := c["reputation.beta_decays_total"]; ok {
		updates := c["reputation.beta_decays_total"] + c["reputation.gamma_decays_total"] +
			c["reputation.misreport_up_total"] + c["reputation.misreport_down_total"] +
			c["reputation.forge_penalties_total"]
		p["reputation.updates_per_tx"] = ratio(float64(updates), txs)
	}
}
