package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"hpm/store"
)

// reconTolerancePct is how far the clamped sum of a traced op's rung self
// times may stray from its client-measured median. The rungs telescope,
// so the sum differs from the client median only where a lower rung's
// median exceeds the one above it — a sign the replays did not see the
// conditions the original request saw.
const reconTolerancePct = 10

// merged is every worker's record combined.
type merged struct {
	lat   [2][numOps][]float64
	span  [numOps][]float64
	rung  map[string][]float64
	late  []float64
	spans []span
	bytes [numOps]int64
	nb    [numOps]int64
}

func merge(ws []*wstats) *merged {
	m := &merged{rung: map[string][]float64{}}
	for _, w := range ws {
		m.add(&merged{lat: w.lat, span: w.span, rung: w.rung, late: w.late, spans: w.spans, bytes: w.bytes, nb: w.nb})
	}
	return m
}

// add appends o's samples and counts to m's.
func (m *merged) add(o *merged) {
	for t := range o.lat {
		for op := range o.lat[t] {
			m.lat[t][op] = append(m.lat[t][op], o.lat[t][op]...)
		}
	}
	for op := range o.span {
		m.span[op] = append(m.span[op], o.span[op]...)
		m.bytes[op] += o.bytes[op]
		m.nb[op] += o.nb[op]
	}
	for k, v := range o.rung {
		m.rung[k] = append(m.rung[k], v...)
	}
	m.late = append(m.late, o.late...)
	m.spans = append(m.spans, o.spans...)
}

// counters accumulates deltas of the store's own counters over the
// measured phases.
type counters struct {
	fsyncs, records, batches       uint64
	extends, trains, trainFailures uint64
	extendSec, trainSec            float64
	checkpoints, checkpointObjects uint64
	queries, forward, backward     int
	markov, fallback, unanswered   int
	nodes, fits                    int
	scored, evalAttempts, evalHits uint64
	spatialUpdates, spatialRebins  int64
}

// add accumulates the change from a to b, two FleetStats of one store.
func (c *counters) add(a, b store.FleetStats) {
	c.fsyncs += b.WAL.Fsyncs - a.WAL.Fsyncs
	c.records += b.WAL.Records - a.WAL.Records
	c.batches += b.WAL.Batches - a.WAL.Batches
	c.extends += b.Extends - a.Extends
	c.trains += b.Trains - a.Trains
	c.trainFailures += b.TrainFailures - a.TrainFailures
	c.extendSec += b.ExtendSeconds - a.ExtendSeconds
	c.trainSec += b.TrainSeconds - a.TrainSeconds
	c.checkpoints += b.Checkpoints - a.Checkpoints
	c.checkpointObjects += b.CheckpointObjects - a.CheckpointObjects
	c.queries += b.Queries.Queries - a.Queries.Queries
	c.forward += b.Queries.Forward - a.Queries.Forward
	c.backward += b.Queries.Backward - a.Queries.Backward
	c.markov += b.Queries.Markov - a.Queries.Markov
	c.fallback += b.Queries.Fallback - a.Queries.Fallback
	c.unanswered += b.Queries.Unanswered - a.Queries.Unanswered
	c.nodes += b.Queries.NodesVisited - a.Queries.NodesVisited
	c.fits += b.Queries.FallbackFits - a.Queries.FallbackFits
	c.scored += b.Eval.Scored - a.Eval.Scored
	for i := range b.Eval.Cells {
		c.evalAttempts += b.Eval.Cells[i].Attempts
		c.evalHits += b.Eval.Cells[i].Hits
		if i < len(a.Eval.Cells) {
			c.evalAttempts -= a.Eval.Cells[i].Attempts
			c.evalHits -= a.Eval.Cells[i].Hits
		}
	}
	c.spatialUpdates += b.Spatial.Updates - a.Spatial.Updates
	c.spatialRebins += b.Spatial.Rebins - a.Spatial.Rebins
}

// layers computes the traced run's per-layer metrics, reconciles each
// op's rungs against its client median, and writes the spans.
func (r *runner) layers(m *merged, observed int, elapsed time.Duration, overhead float64) error {
	d := &r.t
	L := r.res.layer
	set := func(name string, v float64, unit string) { L[name] = metric{finite(v), unit} }
	r.tr.mu.Lock()
	serve := r.tr.serve
	r.tr.mu.Unlock()

	// Each op's rungs, top to bottom: the client span, the serve rung (the
	// middleware's server span for reads; for writes, which cannot be
	// replayed, the requests sent through the handler without a socket),
	// the store call, and for point and batch predicts the model call.
	type chain struct {
		name                 string
		client, serve, store []float64
		model                []float64
	}
	chains := []chain{
		{"observe", m.span[opObserve], m.rung["handler.observe"], m.rung["store.observe"], nil},
		{"predict", m.span[opPredict], serve[opPredict], m.rung["store.predict"], m.rung["hpa.predict"]},
		{"batch", m.span[opBatch], serve[opBatch], m.rung["store.batch"], m.rung["hpa.batch"]},
		{"fleetq", concat(m.span[opRange], m.span[opKNN]), concat(serve[opRange], serve[opKNN]),
			concat(m.rung["spatial.range"], m.rung["spatial.knn"]), nil},
		{"bulk", m.span[opBulk], m.rung["handler.bulk"], m.rung["store.bulk"], nil},
	}
	worst := 0.0
	for _, c := range chains {
		meds := []float64{median(c.client), median(c.serve), median(c.store)}
		if c.model != nil {
			meds = append(meds, median(c.model))
		}
		set("http.self_p50_us."+c.name, meds[0]-meds[1], "us")
		set("serve.self_p50_us."+c.name, meds[1]-meds[2], "us")
		if math.IsNaN(meds[0]) || math.IsNaN(meds[len(meds)-1]) {
			continue
		}
		sum := meds[len(meds)-1]
		for i := 0; i+1 < len(meds); i++ {
			sum += math.Max(0, meds[i]-meds[i+1])
		}
		errPct := 100 * math.Abs(sum-meds[0]) / meds[0]
		worst = math.Max(worst, errPct)
		verdict := "ok"
		if errPct > reconTolerancePct {
			verdict = "OUT OF TOLERANCE"
		}
		fmt.Fprintf(r.out, "reconcile %-8s client %.1fus rungs %v sum of self times %.1fus: %.1f%% off (tolerance %d%%) %s\n",
			c.name, meds[0], rounded(meds), sum, errPct, reconTolerancePct, verdict)
	}
	set("trace.recon_err_pct", worst, "%")

	set("serve.req_bytes.bulk", ratio(float64(m.bytes[opBulk]), float64(m.nb[opBulk])), "B")
	set("serve.resp_bytes.predict", ratio(float64(m.bytes[opPredict]), float64(m.nb[opPredict])), "B")
	set("serve.shed", float64(d.shed.Load()), "count")

	c := r.delta
	set("store.observe_p50_us", median(m.rung["store.observe"]), "us")
	set("store.observe_p99_us", quantile(m.rung["store.observe"], 0.99), "us")
	set("store.observe_all_p50_us", median(m.rung["store.bulk"]), "us")
	set("store.predict_self_p50_us", median(m.rung["store.predict"])-median(m.rung["hpa.predict"]), "us")
	set("store.pending_trains_max", float64(r.pendingMax), "count")
	set("store.wal.fsyncs_per_obs", ratio(float64(c.fsyncs), float64(c.records)), "ratio")
	set("store.wal.records_per_batch", ratio(float64(c.records), float64(c.batches)), "ratio")
	set("store.snapshot.checkpoint_ms", median(r.ckpt), "ms")
	set("store.snapshot.objects_per_checkpoint", ratio(float64(c.checkpointObjects), float64(c.checkpoints)), "count")
	set("store.snapshot.open_ms", median(r.opens), "ms")
	set("store.flush_ms", r.flushMs, "ms")

	set("core.extends_per_s", float64(c.extends)/elapsed.Seconds(), "1/s")
	set("core.extend_ms_mean", 1000*ratio(c.extendSec, float64(c.extends)), "ms")
	set("core.trains", float64(c.trains), "count")
	set("core.train_ms_mean", 1000*ratio(c.trainSec, float64(c.trains)), "ms")
	set("core.train_failures", float64(c.trainFailures), "count")

	set("hpa.predict_p50_us", median(m.rung["hpa.predict"]), "us")
	set("hpa.predict_p99_us", quantile(m.rung["hpa.predict"], 0.99), "us")
	set("hpa.batch_p50_us", median(m.rung["hpa.batch"]), "us")
	set("hpa.pattern_p50_us", median(m.rung["hpa.pattern"]), "us")
	q := float64(c.queries)
	set("hpa.share.fqp", ratio(float64(c.forward), q), "ratio")
	set("hpa.share.bqp", ratio(float64(c.backward), q), "ratio")
	set("hpa.share.markov", ratio(float64(c.markov), q), "ratio")
	set("hpa.share.fallback", ratio(float64(c.fallback), q), "ratio")
	set("hpa.unanswered", float64(c.unanswered), "count")
	set("tpt.nodes_per_query", ratio(float64(c.nodes), q), "count")
	set("markov.predict_p50_us", median(m.rung["markov.predict"]), "us")
	set("markov.decline_ratio", ratio(float64(d.declined.Load()), float64(d.markovAsked.Load())), "ratio")
	set("motion.predict_p50_us", median(m.rung["motion.predict"]), "us")
	set("motion.fits_per_fallback", ratio(float64(c.fits), float64(c.fallback)), "ratio")

	obs := float64(observed)
	set("evalq.scored_per_obs", ratio(float64(c.scored), obs), "ratio")
	set("evalq.hit_rate", ratio(float64(c.evalHits), float64(c.evalAttempts)), "ratio")
	set("spatial.refresh_p50_us", median(m.rung["spatial.refresh"]), "us")
	set("spatial.updates_per_obs", ratio(float64(c.spatialUpdates), obs), "ratio")
	set("spatial.rebins_per_obs", ratio(float64(c.spatialRebins), obs), "ratio")
	set("spatial.range_p50_us", median(m.rung["spatial.range"]), "us")
	set("spatial.knn_p50_us", median(m.rung["spatial.knn"]), "us")
	set("spatial.results_per_query", ratio(float64(d.results.Load()), float64(d.fleetQueries.Load())), "count")

	set("gen.late_p99_ms", quantile(m.late, 0.99), "ms")
	set("gen.trace_overhead_pct", overhead, "%")

	names := make([]string, 0, len(L))
	for k := range L {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		report(r.out, k, L[k].Value, L[k].Unit, -1)
	}
	path := filepath.Join(r.cfg.traceOut, r.cfg.workload+".jsonl")
	if err := r.tr.write(path, m.spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(r.out, "trace written to %s\n", path)
	return nil
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}
