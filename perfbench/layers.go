package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// perLayer lists the metrics a traced run reports, named by the module
// whose work they measure. Per-batch counts and times are means over the
// traced batches. A workload that does not run a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"graph.apply_ms", "ms"},
	{"graph.applied_frac", "frac"},
	{"etree.dtree_ms", "ms"},
	{"dflow.maintain_ms", "ms"},
	{"dflow.maintain_p90_ms", "ms"},
	{"dflow.schedule_ms", "ms"},
	{"dflow.impacted_flows", "count"},
	{"dflow.units", "count"},
	{"dflow.levels", "count"},
	{"dflow.flows", "count"},
	{"engine.batch_mean_ms", "ms"},
	{"engine.trim_ms", "ms"},
	{"engine.trim_roots", "count"},
	{"engine.trimmed", "count"},
	{"engine.compute_ms", "ms"},
	{"engine.relaxations", "count"},
	{"engine.pulls", "count"},
	{"engine.cross_msgs", "count"},
	{"engine.relax_per_update", "ratio"},
	{"engine.dispatches", "count"},
	{"engine.steal_frac", "frac"},
	{"engine.parks", "count"},
	{"engine.dispatch_wait_p99_us", "us"},
	{"engine.unattributed_ms", "ms"},
	{"engine.init_s", "s"},
	{"wal.append_p50_us", "us"},
	{"wal.append_p90_us", "us"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p90_us", "us"},
	{"wal.fsyncs_per_append", "ratio"},
	{"wal.snapshots", "count"},
	{"serve.group_size_mean", "count"},
	{"serve.rejected", "count"},
	{"serve.backlog_end", "count"},
	{"serve.read_lag_p50_ms", "ms"},
	{"serve.read_lag_p90_ms", "ms"},
	{"serve.apply_p50_ms", "ms"},
	{"serve.visible_p50_ms", "ms"},
	{"serve.visible_p90_ms", "ms"},
	{"serve.ack_to_visible_p50_ms", "ms"},
	{"dist.local_batch_p50_ms", "ms"},
	{"dist.overhead_p50_ms", "ms"},
	{"dist.ckpt_batch_p50_ms", "ms"},
	{"dist.retransmits", "count"},
	{"dist.reconnects", "count"},
	{"dist.peer_down", "count"},
	{"dist.dups_discarded", "count"},
	{"dist.worker_fsync_p90_us", "us"},
	{"dist.join_s", "s"},
	{"go.alloc_mb_per_batch", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"gen.generate_s", "s"},
	{"gen.stream_s", "s"},
	{"harness.late_p90_ms", "ms"},
	{"harness.trace_overhead_frac", "frac"},
	{"ref.kickstarter_batch_p50_ms", "ms"},
	{"ref.workers1_batch_p50_ms", "ms"},
	{"input.vertices", "count"},
	{"input.edges", "count"},
	{"input.max_in_degree", "count"},
	{"input.top1pct_in_share", "frac"},
	{"input.delete_share", "frac"},
	{"input.boundary_batch_share", "frac"},
}

// engineLayers sums the engine's own phase split over traced batches.
type engineLayers struct {
	n                  int
	submitted, applied int
	caller, unattr     time.Duration
	apply, maintain    time.Duration
	dtree, trim        time.Duration
	sched, compute     time.Duration
	maintainOnly       []float64 // per batch, ms: flow maintenance without the D-tree
	trimRoots, trimmed int
	impacted, units    int
	levels             int
	cross, relax       int64
	pulls, dispatches  int64
	steals, parks      int64
}

func (a *engineLayers) add(caller time.Duration, submitted int, st engine.BatchStats) {
	a.n++
	a.submitted += submitted
	a.applied += st.Applied
	a.caller += caller
	a.unattr += unattributed(caller, st)
	a.apply += st.ApplyTime
	a.maintain += st.MaintainTime
	a.dtree += st.DtreeTime
	a.trim += st.TrimTime
	a.sched += st.ScheduleTime
	a.compute += st.ComputeTime
	a.maintainOnly = append(a.maintainOnly, ms(st.MaintainTime-st.DtreeTime))
	a.trimRoots += st.TrimRoots
	a.trimmed += st.Trimmed
	a.impacted += st.Impacted
	a.units += st.Units
	a.levels += st.Levels
	a.cross += st.CrossMsgs
	a.relax += st.Relaxations
	a.pulls += st.Pulls
	a.dispatches += st.Dispatches
	a.steals += st.Steals
	a.parks += st.SchedParks
}

func (a *engineLayers) report(L map[string]float64) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	per := func(d time.Duration) float64 { return ms(d) / n }
	L["engine.batch_mean_ms"] = per(a.caller)
	L["graph.apply_ms"] = per(a.apply)
	if a.submitted > 0 {
		L["graph.applied_frac"] = float64(a.applied) / float64(a.submitted)
	}
	L["etree.dtree_ms"] = per(a.dtree)
	L["dflow.maintain_ms"] = per(a.maintain - a.dtree)
	L["dflow.maintain_p90_ms"] = percentile(append([]float64(nil), a.maintainOnly...), 90)
	L["dflow.schedule_ms"] = per(a.sched)
	L["dflow.impacted_flows"] = float64(a.impacted) / n
	L["dflow.units"] = float64(a.units) / n
	L["dflow.levels"] = float64(a.levels) / n
	L["engine.trim_ms"] = per(a.trim)
	L["engine.trim_roots"] = float64(a.trimRoots) / n
	L["engine.trimmed"] = float64(a.trimmed) / n
	L["engine.compute_ms"] = per(a.compute)
	L["engine.relaxations"] = float64(a.relax) / n
	L["engine.pulls"] = float64(a.pulls) / n
	L["engine.cross_msgs"] = float64(a.cross) / n
	if a.applied > 0 {
		L["engine.relax_per_update"] = float64(a.relax) / float64(a.applied)
	}
	L["engine.dispatches"] = float64(a.dispatches) / n
	if a.dispatches > 0 {
		L["engine.steal_frac"] = float64(a.steals) / float64(a.dispatches)
	}
	L["engine.parks"] = float64(a.parks) / n
	L["engine.unattributed_ms"] = per(a.unattr)
}

// histUs reads a duration histogram quantile in microseconds.
func histUs(reg *metrics.Registry, name string, q float64) float64 {
	return float64(reg.Histogram(name).Quantile(q)) / 1e3
}

// histMs reads a duration histogram quantile in milliseconds.
func histMs(reg *metrics.Registry, name string, q float64) float64 {
	return float64(reg.Histogram(name).Quantile(q)) / 1e6
}

// walLayers reports the WAL's append and fsync costs from its registry.
func walLayers(L map[string]float64, reg *metrics.Registry) {
	L["wal.append_p50_us"] = histUs(reg, "wal.append_ns", 0.5)
	L["wal.append_p90_us"] = histUs(reg, "wal.append_ns", 0.9)
	L["wal.fsync_p50_us"] = histUs(reg, "wal.fsync_ns", 0.5)
	L["wal.fsync_p90_us"] = histUs(reg, "wal.fsync_ns", 0.9)
	if a := reg.Counter("wal.appends").Value(); a > 0 {
		L["wal.fsyncs_per_append"] = float64(reg.Counter("wal.fsyncs").Value()) / float64(a)
	}
	L["wal.snapshots"] = float64(reg.Counter("wal.snapshots").Value())
}

// inputLayers records the measured input properties.
func inputLayers(L map[string]float64, in input, p properties) {
	L["gen.generate_s"] = in.genS
	L["gen.stream_s"] = in.streamS
	L["input.vertices"] = float64(p.vertices)
	L["input.edges"] = float64(p.edges)
	L["input.max_in_degree"] = float64(p.maxInDeg)
	L["input.top1pct_in_share"] = p.top1InShare
	L["input.delete_share"] = p.delShare
}
