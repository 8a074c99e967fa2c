package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"hpm/internal/spatial"
	"hpm/store"
)

// workloads maps each --workload name to its run.
var workloads = map[string]func(context.Context, *runner) error{
	"live":     runLive,
	"query":    runQuery,
	"backfill": runBackfill,
}

// Offered load at scale 1, sized at about half of what a 2-CPU host
// sustains (see README.md).
const (
	liveObjects  = 48
	liveTickHz   = 6.25 // observes per object per second
	queryObjects = 240
	// backfillObjects is the fleet one backfill round loads; a round
	// takes about backfillRoundSeconds on a 2-CPU host, and a run makes
	// one timed round per backfillRoundSeconds of --seconds after a
	// warm-up round, so its work is fixed by --seconds alone.
	backfillObjects      = 240
	backfillRoundSeconds = 1.2
	// backfillSetupReps is how many empty stores backfill's set-up opens;
	// each takes under a millisecond, so many repetitions steady the median.
	backfillSetupReps = 40
	// fleetReads is how many range and kNN queries a backfill round's
	// verification reads include.
	fleetReads = 200
	// checkpointEvery is live's Store.Checkpoint cadence (20 ticks).
	checkpointEvery = time.Duration(20 / liveTickHz * float64(time.Second))
	// checkSample is how many objects the recovery checks compare.
	checkSample = 200
	// indexChecks is how many range and kNN answers are compared with
	// the brute-force scans after the quiesce.
	indexChecks = 40
)

var (
	liveRates  = map[opKind]float64{opPredict: 100, opBatch: 50, opRange: 25, opKNN: 25}
	queryRates = map[opKind]float64{opPredict: 1000, opBatch: 300, opRange: 150, opKNN: 150}
)

// conns is the generator's connection count: at most nproc.
func conns() int { return min(2, runtime.NumCPU()) }

// runner carries one run's configuration, resources and measurements.
type runner struct {
	cfg  config
	root string
	rel  *releaser
	out  io.Writer
	res  *result
	tr   *tracer
	rng  *rand.Rand

	heapBase   uint64
	setup      []float64 // s per set-up repetition
	reopen     []float64 // s per Close/Open/first-predict cycle
	opens      []float64 // ms of store.Open per reopen cycle
	ckpt       []float64 // ms per benchmark-driven Checkpoint
	flushMs    float64
	pendingMax int
	nodes      map[*node]bool // open nodes, closed on every exit path
	delta      counters
	t          tallies
	record     map[string]any
}

func (r *runner) scaled(n float64) int { return max(4, int(n*r.cfg.scale)) }

func (r *runner) rate(rates map[opKind]float64) map[opKind]float64 {
	out := map[opKind]float64{}
	for op, v := range rates {
		out[op] = v * r.cfg.scale
	}
	return out
}

// begin sets up what every workload shares: the tracer, the seeded
// choice generator, the heap baseline and the run record.
func (r *runner) begin(objs []*object) {
	if r.cfg.trace {
		r.tr = newTracer()
	}
	r.rng = rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapBase = m.HeapAlloc
	opts := storeOptions()
	r.record = map[string]any{
		"workload":   r.cfg.workload,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.seconds,
		"trace":      r.cfg.trace,
		"scale":      r.cfg.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"objects":    len(objs),
		"period":     period,
		"conns":      conns(),
		"wal_sync":   !opts.WALNoSync,
		"store":      opts,
	}
	lim := serveLimits()
	r.record["limits"] = map[string]any{
		"max_inflight": lim.MaxInflight, "request_timeout": lim.RequestTimeout.String(),
		"shed_policy": lim.ShedPolicy, "max_subscribers": lim.MaxSubscribers,
	}
}

func runLive(ctx context.Context, r *runner) error {
	return r.openLoop(ctx, r.scaled(liveObjects), liveTickHz, r.rate(liveRates), opObserve)
}

func runQuery(ctx context.Context, r *runner) error {
	return r.openLoop(ctx, r.scaled(queryObjects), 0, r.rate(queryRates), opPredict)
}

// openLoop runs live (tickHz > 0) or query (tickHz = 0): a trained fleet
// driven on a fixed schedule for --seconds, then the checks. main is the
// op whose latency the result line reports as main_p50_ms.
func (r *runner) openLoop(ctx context.Context, n int, tickHz float64, rates map[opKind]float64, main opKind) error {
	seconds := float64(r.cfg.seconds)
	ticks := int(seconds * tickHz)
	objs := makeFleet(r.cfg.seed, 1, n, histPeriods, true, ticks+maxHorizon+2)
	r.begin(objs)
	c := newClient(conns())
	r.rel.add(c.close)
	nd, err := r.setupFleet(ctx, c, objs)
	if err != nil {
		return err
	}
	d := newLoadGen(r, nd, c, objs)
	window := time.Duration(seconds * float64(time.Second))
	plan := openLoopPlan{
		seconds: seconds, tickHz: tickHz, rates: rates, conns: conns(), traceAt: -1,
		rng: r.rng, objs: n, order: r.rng.Perm(n),
		horizons: map[opKind]int{opPredict: len(pointHorizons), opRange: len(d.fleetH), opKNN: len(d.fleetH)},
	}
	if r.cfg.trace {
		// The first half runs untraced, the second traced; a seeded third
		// of the objects each observe over the socket, through the handler
		// without a socket, or straight into the store.
		plan.traceAt = window / 2
		routes := r.rng.Perm(n)
		plan.routeOf = func(obj int) route { return route(routes[obj] % 3) }
		if d.models, err = copyModels(d, r.rng.Perm(n)); err != nil {
			return err
		}
	}
	lists := schedule(plan)
	offered := map[string]float64{}
	for op, v := range rates {
		offered[opNames[op]] = v
	}
	if tickHz > 0 {
		offered["observe"] = tickHz * float64(n)
	}
	r.record["offered_per_s"] = offered
	r.record["tick_hz"] = tickHz

	ckptEvery := time.Duration(0)
	if tickHz > 0 {
		ckptEvery = checkpointEvery
	}
	before := nd.st.FleetStats()
	stop := r.background(nd.st, ckptEvery)
	ws, err := d.runLists(ctx, lists, true)
	stop()
	elapsed := time.Since(d.t0)
	r.delta.add(before, nd.st.FleetStats())
	if err != nil {
		return err
	}
	m := merge(ws)
	observed := len(m.lat[0][opObserve]) + len(m.lat[1][opObserve]) + len(m.rung["handler.observe"]) + len(m.rung["store.observe"])
	reads := 0
	for _, op := range []opKind{opPredict, opBatch, opRange, opKNN} {
		reads += len(m.lat[0][op]) + len(m.lat[1][op])
	}
	hits, answered := d.hits.Load(), d.answered.Load()

	if _, err := r.finish(ctx, d, min(n, checkSample)); err != nil {
		return err
	}

	throughput := float64(reads) / elapsed.Seconds()
	if main == opObserve {
		throughput = float64(observed) / elapsed.Seconds()
	}
	r.endToEnd(m, 0, main, ratio(float64(hits), float64(answered)), throughput)
	r.printReport(m, hits, answered, elapsed)
	if r.cfg.trace {
		return r.layers(m, observed, elapsed, overheadPct(m.lat[0][main], m.lat[1][main]))
	}
	return nil
}

// runBackfill bulk-loads fresh durable stores over two connections in a
// closed loop until every object has trained: a warm-up round, then one
// timed round, with a new fleet each, per backfillRoundSeconds of
// --seconds. The warm-up round is checked like the others but not timed:
// the first round runs while the heap and the process are still growing.
// After each round's load it times verification reads; the last round
// first runs the checks and the reopen cycles, so its reads hit the
// reopened store. throughput_s, the median over the timed rounds of each
// round's points over its load time, is the gated figure of the bulk path:
// a median over many short rounds is not moved by a slow spell of the
// shared host that covers only a few of them. main_p50_ms is the point
// predict median of the verification reads: the bulk requests' own median
// is printed but not gated, because each request waits on a WAL fsync and
// the shared host's disk moves it by a fifth from run to run (see
// README.md).
func runBackfill(ctx context.Context, r *runner) error {
	n := r.scaled(backfillObjects)
	hist := backfillPeriods * period
	fleet := func(round int) []*object {
		// Each round loads a different fleet from the pool.
		objs := makeFleet(r.cfg.seed+int64(round), 1+int64(round*n), n, backfillPeriods, false, maxHorizon+2)
		for _, o := range objs {
			o.acked.Store(-1)
		}
		return objs
	}
	objs := fleet(0)
	r.begin(objs)
	r.record["offered_per_s"] = "closed loop"
	r.record["points_per_round"] = n * hist
	r.record["bulk_objects_per_request"] = bulkGroup
	r.record["bulk_points_per_object"] = bulkChunk
	c := newClient(conns())
	r.rel.add(c.close)

	// Set-up here is an empty durable store served and ready.
	nd, err := r.setUpNode(ctx, c, backfillSetupReps, "backfill-setup", func(*node) error { return nil })
	if err != nil {
		return err
	}

	rounds := 1 + max(1, int(float64(r.cfg.seconds)/backfillRoundSeconds))
	t := 0
	if r.cfg.trace {
		t = 1
	}
	all := &merged{rung: map[string][]float64{}}
	var rates []float64 // points per second of each timed round
	var loadTime time.Duration
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := r.closeNode(nd); err != nil {
				return err
			}
			os.RemoveAll(nd.dir)
			if nd, _, err = r.openNode(filepath.Join(r.root, fmt.Sprintf("backfill-%d", round))); err != nil {
				return err
			}
			c.base = "http://" + nd.addr
			objs = fleet(round)
		}
		d := newLoadGen(r, nd, c, objs)
		m, elapsed, err := r.bulkLoad(ctx, d, hist)
		if err != nil {
			return err
		}
		warm := round == 0
		if !warm {
			loadTime += elapsed
			rates = append(rates, float64(n*hist)/elapsed.Seconds())
			all.add(m)
		}
		last := round == rounds-1
		if last {
			if nd, err = r.finish(ctx, d, min(n, checkSample)); err != nil {
				return err
			}
			d = newLoadGen(r, nd, c, objs)
		}
		rm, err := r.verifyReads(ctx, d)
		if err != nil {
			return err
		}
		if warm {
			r.delta = counters{}
			continue
		}
		all.add(rm)
	}
	r.record["rounds"] = len(rates)
	r.record["warmup_rounds"] = 1
	hits, answered := r.t.hits.Load(), r.t.answered.Load()
	r.endToEnd(all, t, opPredict, ratio(float64(hits), float64(answered)), median(rates))
	r.printReport(all, hits, answered, loadTime)
	report(r.out, "backfill_points_s", median(rates), "points/s", len(rates))
	if r.cfg.trace {
		return r.layers(all, len(rates)*n*hist, loadTime, 0)
	}
	return nil
}

// bulkLoad sends every object's history through POST /observe over
// conns() connections, closed loop, then flushes the training backlog.
// Time-major: every group's chunk k goes before any chunk k+1, like
// replaying a log; a group always uses the same connection, so each
// object's points arrive in order.
func (r *runner) bulkLoad(ctx context.Context, d *loadGen, hist int) (*merged, time.Duration, error) {
	groups := (len(d.objs) + bulkGroup - 1) / bulkGroup
	routes := r.rng.Perm(groups)
	lists := make([][]job, conns())
	for k := 0; k < hist/bulkChunk; k++ {
		for g := 0; g < groups; g++ {
			j := job{op: opBulk, obj: int32(g * bulkGroup), arg: int32(k), traced: r.cfg.trace}
			if r.cfg.trace {
				j.route = route(routes[g] % 3)
			}
			lists[g%len(lists)] = append(lists[g%len(lists)], j)
		}
	}
	before := d.n.st.FleetStats()
	stop := r.background(d.n.st, 0)
	ws, err := d.runLists(ctx, lists, false)
	if err == nil {
		t := time.Now()
		if ferr := d.n.st.Flush(); ferr != nil {
			r.res.fail("backfill: training failed: %v", ferr)
		}
		r.flushMs = ms(time.Since(t))
	}
	stop()
	elapsed := time.Since(d.t0)
	r.delta.add(before, d.n.st.FleetStats())
	if err != nil {
		return nil, 0, err
	}
	for _, o := range d.objs {
		st, err := d.n.st.Stats(o.id)
		if err != nil || st.Points != hist || !st.Trained {
			r.res.fail("backfill: %s has %d points, trained %v (err %v); want %d, trained", o.id, st.Points, st.Trained, err, hist)
		}
	}
	return merge(ws), elapsed, nil
}

// verifyReads times closed-loop reads after a load: every point horizon
// and one batch per object, and range and kNN queries.
func (r *runner) verifyReads(ctx context.Context, d *loadGen) (*merged, error) {
	if r.cfg.trace {
		var err error
		if d.models, err = copyModels(d, r.rng.Perm(len(d.objs))[:min(len(d.objs), checkSample)]); err != nil {
			return nil, err
		}
	}
	var reads []job
	for i := range d.objs {
		for h := range pointHorizons {
			reads = append(reads, job{op: opPredict, obj: int32(i), arg: int32(h)})
		}
		reads = append(reads, job{op: opBatch, obj: int32(i)})
	}
	for i := 0; i < fleetReads; i++ {
		reads = append(reads, job{op: opRange + opKind(i%2), center: int32(r.rng.Intn(len(d.objs))), arg: int32(r.rng.Intn(len(d.fleetH)))})
	}
	r.rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
	lists := make([][]job, conns())
	for i, j := range reads {
		j.traced = r.cfg.trace
		lists[i%len(lists)] = append(lists[i%len(lists)], j)
	}
	before := d.n.st.FleetStats()
	ws, err := d.runLists(ctx, lists, false)
	r.delta.add(before, d.n.st.FleetStats())
	if err != nil {
		return nil, err
	}
	return merge(ws), nil
}

// background runs live's checkpoint schedule (every > 0) and, in traced
// runs, samples the training backlog. The returned stop waits for both.
func (r *runner) background(st *store.Store, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	if every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Checkpoints fall mid-interval, at every/2 + k*every, so a
			// window of whole intervals always holds the same number.
			start := time.Now()
			for due := every / 2; ; due += every {
				tm := time.NewTimer(time.Until(start.Add(due)))
				select {
				case <-done:
					tm.Stop()
					return
				case <-tm.C:
					t := time.Now()
					if err := st.Checkpoint(); err != nil {
						r.res.fail("checkpoint: %v", err)
					}
					mu.Lock()
					r.ckpt = append(r.ckpt, ms(time.Since(t)))
					mu.Unlock()
				}
			}
		}()
	}
	if r.cfg.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := time.NewTicker(20 * time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-done:
					return
				case <-tk.C:
					p := st.Health().PendingTrains
					mu.Lock()
					r.pendingMax = max(r.pendingMax, p)
					mu.Unlock()
				}
			}
		}()
	}
	var once sync.Once
	stop = func() { once.Do(func() { close(done); wg.Wait() }) }
	r.rel.add(stop)
	return stop
}

// finish quiesces the node and runs the checks every workload shares:
// indexed fleet answers against the brute-force scans, the heap, the
// disk footprint after a final checkpoint, reopenReps timed
// Close/Open/first-predict cycles, and recovery of every acknowledged
// point and of sampled predictions. It returns the reopened node.
func (r *runner) finish(ctx context.Context, d *loadGen, sample int) (*node, error) {
	st := d.n.st
	if r.flushMs == 0 {
		t := time.Now()
		if err := st.Flush(); err != nil {
			r.res.fail("flush: %v", err)
		}
		r.flushMs = ms(time.Since(t))
	}
	if err := r.checkIndex(ctx, d); err != nil {
		return nil, err
	}
	picked := r.rng.Perm(len(d.objs))[:sample]
	pre, err := d.capture(ctx, picked)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heap := float64(int64(mem.HeapAlloc)-int64(r.heapBase)) / (1 << 20)

	before := st.FleetStats()
	t := time.Now()
	if err := st.Checkpoint(); err != nil {
		r.res.fail("final checkpoint: %v", err)
	}
	r.ckpt = append(r.ckpt, ms(time.Since(t)))
	r.delta.add(before, st.FleetStats())
	points := 0
	for _, o := range d.objs {
		points += int(o.acked.Load()) + 1
	}
	disk, err := dirBytes(d.n.dir)
	if err != nil {
		return nil, err
	}
	r.record["snapshot_bytes"] = st.FleetStats().SnapshotBytes
	r.res.e2e["heap_mb"] = metric{heap, "MiB"}
	r.res.e2e["disk_bytes_per_point"] = metric{float64(disk) / float64(points), "B"}
	r.res.layer["store.snapshot.bytes_per_point"] = metric{float64(st.FleetStats().SnapshotBytes) / float64(points), "B"}

	for rep := 0; rep < reopenReps; rep++ {
		t := time.Now()
		if err := r.closeNode(d.n); err != nil {
			r.res.fail("close: %v", err)
		}
		nd, openTime, err := r.openNode(d.n.dir)
		if err != nil {
			return nil, err
		}
		d.n = nd
		d.c.close()
		d.c.base = "http://" + nd.addr
		var resp predictResp
		status, _, err := d.c.call(ctx, http.MethodGet, fmt.Sprintf("/objects/%s/predict?horizon=5&k=1", d.objs[0].id), nil, 0, &resp)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("first predict after reopen: status %d, err %v", status, err)
		}
		r.reopen = append(r.reopen, time.Since(t).Seconds())
		r.opens = append(r.opens, ms(openTime))
	}

	st = d.n.st
	if got := len(st.Objects()); got != len(d.objs) {
		r.res.fail("reopen: %d objects, want %d", got, len(d.objs))
	}
	for _, o := range d.objs {
		s, err := st.Stats(o.id)
		if want := int(o.acked.Load()) + 1; err != nil || s.Points != want {
			r.res.fail("reopen: %s has %d points (err %v), want %d", o.id, s.Points, err, want)
		}
	}
	post, err := d.capture(ctx, picked)
	if err != nil {
		return nil, err
	}
	for path, body := range pre {
		if post[path] != body {
			r.res.fail("reopen: %s answered %s, before close %s", path, post[path], body)
		}
	}
	return d.n, nil
}

// capture takes the raw answers of point predicts at fixed query times
// for the given objects, for comparison across a reopen.
func (d *loadGen) capture(ctx context.Context, idx []int) (map[string]string, error) {
	out := map[string]string{}
	for _, i := range idx {
		o := d.objs[i]
		for _, h := range pointHorizons {
			path := fmt.Sprintf("/objects/%s/predict?tq=%d&k=1", o.id, int(o.acked.Load())+h)
			var raw json.RawMessage
			status, _, err := d.c.call(ctx, http.MethodGet, path, nil, 0, &raw)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("capture %s: status %d, err %v", path, status, err)
			}
			out[path] = string(raw)
		}
	}
	return out, nil
}

// checkIndex compares indexed range and kNN answers over HTTP with the
// store's brute-force scans, after the quiesce.
func (r *runner) checkIndex(ctx context.Context, d *loadGen) error {
	for i := 0; i < indexChecks; i++ {
		c := d.objs[r.rng.Intn(len(d.objs))]
		q := fleetQuery{knn: i%2 == 1, center: c.track[c.acked.Load()], h: d.fleetH[r.rng.Intn(len(d.fleetH))]}
		var resp fleetResp
		status, _, err := d.c.call(ctx, http.MethodGet, q.path(), nil, 0, &resp)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("index check %s: status %d, err %v", q.path(), status, err)
		}
		if err := validFleet(q, resp); err != nil {
			r.res.fail("index check: %v", err)
			continue
		}
		var sr []spatial.Result
		if q.knn {
			sr, err = d.n.st.ScanNearest(q.center, knnK, q.h)
		} else {
			sr, err = d.n.st.ScanRange(q.rect(), q.h)
		}
		if err != nil {
			return err
		}
		scan := fleetJSONOf(sr)
		got := append([]fleetJSON(nil), resp.Results...)
		for _, xs := range [][]fleetJSON{got, scan} {
			sort.Slice(xs, func(a, b int) bool {
				if xs[a].Dist != xs[b].Dist {
					return xs[a].Dist < xs[b].Dist
				}
				return xs[a].ID < xs[b].ID
			})
		}
		if len(got) != len(scan) || (len(got) > 0 && !reflect.DeepEqual(got, scan)) {
			r.res.fail("index check %s: index answered %v, scan %v", q.path(), got, scan)
		}
	}
	return nil
}

func concat(xs ...[]float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

// overheadPct is how much slower the traced half's median was.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * (ratio(median(traced), median(untraced)) - 1)
}

// stretches is how many stretches of the run stretchMedian splits a
// latency record into.
const stretches = 10

// stretchMedian is the median of the medians of equal, contiguous
// stretches of xs. Each worker records its samples in the order it sent
// them, so a stretch is a stretch of the run: a slow spell of the shared
// host that covers fewer than half of them barely moves the figure, while
// it would pull the median of the whole record toward the spell.
func stretchMedian(xs []float64) float64 {
	if len(xs) < stretches {
		return median(xs)
	}
	meds := make([]float64, stretches)
	for i := range meds {
		meds[i] = median(xs[i*len(xs)/stretches : (i+1)*len(xs)/stretches])
	}
	return median(meds)
}

// endToEnd stores the result line's end-to-end metrics: the main op's
// median latency over stretches of the run (tails and the other ops are
// printed, not gated; see README.md), hit rate, throughput, and the
// set-up, heap and disk figures gathered along the way.
func (r *runner) endToEnd(m *merged, t int, main opKind, hitRate, throughput float64) {
	e := r.res.e2e
	e["setup_s"] = metric{median(r.setup), "s"}
	e["main_p50_ms"] = metric{finite(stretchMedian(m.lat[t][main])), "ms"}
	e["hit_rate"] = metric{hitRate, "ratio"}
	e["throughput_s"] = metric{throughput, "1/s"}
}

// printReport prints every end-to-end figure by name, unit and
// sample count, and the run record.
func (r *runner) printReport(m *merged, hits, answered int64, elapsed time.Duration) {
	w := r.out
	t := 0
	if r.cfg.trace {
		t = 1
	}
	rec, err := json.Marshal(r.record)
	if err != nil {
		rec = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "record %s\n", rec)
	report(w, "setup_s", median(r.setup), "s", len(r.setup))
	if x := m.lat[0][opObserve]; len(x) > 0 {
		report(w, "observe_p50_ms", quantile(x, 0.5), "ms", len(x))
		report(w, "observe_p99_ms", quantile(x, 0.99), "ms", len(x))
	}
	if x := m.lat[t][opBulk]; len(x) > 0 {
		report(w, "bulk_p50_ms", quantile(x, 0.5), "ms", len(x))
		report(w, "bulk_p99_ms", quantile(x, 0.99), "ms", len(x))
	}
	if x := m.lat[t][opPredict]; len(x) > 0 {
		report(w, "predict_p50_ms", quantile(x, 0.5), "ms", len(x))
		report(w, "predict_p99_ms", quantile(x, 0.99), "ms", len(x))
	}
	if x := m.lat[t][opBatch]; len(x) > 0 {
		report(w, "batch_p99_ms", quantile(x, 0.99), "ms", len(x))
	}
	if x := concat(m.lat[t][opRange], m.lat[t][opKNN]); len(x) > 0 {
		report(w, "fleetq_p99_ms", quantile(x, 0.99), "ms", len(x))
	}
	if x := concat(m.lat[t][opPredict], m.lat[t][opBatch], m.lat[t][opRange], m.lat[t][opKNN]); len(x) > 0 {
		report(w, "read_p50_ms", quantile(x, 0.5), "ms", len(x))
	}
	report(w, "hit_rate", ratio(float64(hits), float64(answered)), "ratio", int(answered))
	attempted, failed := r.t.attempted.Load(), r.t.failed.Load()
	report(w, "fail_ratio", ratio(float64(failed), float64(attempted)), "ratio", int(attempted))
	report(w, "reopen_s", median(r.reopen), "s", len(r.reopen))
	report(w, "heap_mb", r.res.e2e["heap_mb"].Value, "MiB", -1)
	report(w, "disk_bytes_per_point", r.res.e2e["disk_bytes_per_point"].Value, "B", -1)
	if len(m.late) > 0 {
		report(w, "gen.late_p99_ms", quantile(m.late, 0.99), "ms", len(m.late))
	}
	report(w, "elapsed_s", elapsed.Seconds(), "s", -1)
}
