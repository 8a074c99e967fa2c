package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpm"
	"hpm/store"
)

// opKind is one request type the generator sends.
type opKind uint8

const (
	opObserve opKind = iota // POST /objects/{id}/observe, one point
	opPredict               // GET /objects/{id}/predict
	opBatch                 // POST /objects/{id}/predict
	opRange                 // GET /query/range
	opKNN                   // GET /query/knn
	opBulk                  // POST /observe
	numOps
)

var opNames = [numOps]string{"observe", "predict", "batch", "range", "knn", "bulk"}

// route is how a job reaches the program: over the socket, through the
// handler without a socket, or straight into the store. Only traced runs
// use the last two, to time the serve and store rungs of writes.
type route uint8

const (
	viaHTTP route = iota
	viaHandler
	viaStore
)

// job is one scheduled request.
type job struct {
	due    time.Duration // offset from the window start (open loop)
	op     opKind
	route  route
	traced bool
	obj    int32 // object index (first object of a bulk group)
	arg    int32 // observe: tick; predict: horizon index; fleet: horizon index; bulk: chunk
	center int32 // range/knn: index of the object the query centers on
}

// Query shapes.
const (
	rangeHalf = 250 // half side of a range query rectangle
	knnK      = 5
	// bulkGroup objects with bulkChunk points each make one bulk request.
	bulkGroup = 6
	bulkChunk = 30
)

// wstats is one worker's private record of what it measured.
type wstats struct {
	lat   [2][numOps][]float64 // [traced][op] ms from due (see runLists), socket requests only
	span  [numOps][]float64    // µs send→done of traced socket requests
	rung  map[string][]float64 // µs of in-process calls, by rung name
	late  []float64            // ms the generator woke past a due time
	spans []span
	bytes [numOps]int64 // request bytes (bulk) or response bytes (predict)
	nb    [numOps]int64
	tq    int // query time of the last answered point predict
	err   error
}

func newWstats() *wstats { return &wstats{rung: map[string][]float64{}} }

// loadGen executes jobs against the current node and validates answers.
type loadGen struct {
	r      *runner
	n      *node
	c      *client
	objs   []*object
	batchH []int // batch-predict horizons: the evaluator's buckets
	fleetH []int // fleet-query horizons: the index's buckets
	t0     time.Time
	models models // traced runs: private predictor copies for the model rung

	*tallies
}

// tallies are a run's request counts, shared by all of its load generators.
type tallies struct {
	answered, hits        atomic.Int64 // predictions with an answer / within hitDistance
	fleetQueries, results atomic.Int64
	shed                  atomic.Int64
	attempted, failed     atomic.Int64
	markovAsked, declined atomic.Int64
}

func newLoadGen(r *runner, n *node, c *client, objs []*object) *loadGen {
	return &loadGen{r: r, n: n, c: c, objs: objs, batchH: n.st.EvalConfig().Buckets, fleetH: n.st.FleetHorizons(), tallies: &r.t}
}

// ms converts a duration to float milliseconds, us to microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runLists runs one goroutine per job list and waits for all of them.
// Open loop (paced) lists wait for each job's due time; closed loop lists
// send the next job as soon as the previous one is answered.
func (d *loadGen) runLists(ctx context.Context, lists [][]job, paced bool) ([]*wstats, error) {
	ws := make([]*wstats, len(lists))
	var wg sync.WaitGroup
	d.t0 = time.Now()
	for i := range lists {
		ws[i] = newWstats()
		wg.Add(1)
		go func(w *wstats, list []job) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.err = fmt.Errorf("worker panic: %v", p)
				}
			}()
			for _, j := range list {
				if ctx.Err() != nil {
					return
				}
				// A request is timed from its due time, so a stall also
				// charges the requests queued behind it; when the worker
				// was idle and its own timer fired late, it is timed from
				// the wake-up instead and the overshoot counts as
				// generator lateness.
				from := time.Now()
				if paced {
					due := d.t0.Add(j.due)
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						from = time.Now()
						w.late = append(w.late, ms(from.Sub(due)))
					} else {
						from = due
					}
				}
				d.exec(ctx, j, from, w)
			}
		}(ws[i], lists[i])
	}
	wg.Wait()
	for _, w := range ws {
		if w.err != nil {
			return ws, w.err
		}
	}
	return ws, ctx.Err()
}

// exec sends one job and records its latency from the given time.
func (d *loadGen) exec(ctx context.Context, j job, from time.Time, w *wstats) {
	var reqID int64
	if j.traced && j.route == viaHTTP {
		reqID = d.r.tr.newID()
	}
	start := time.Now()
	var err error
	switch j.op {
	case opObserve:
		err = d.observe(ctx, j, reqID, w)
	case opPredict:
		err = d.predict(ctx, j, reqID, w)
	case opBatch:
		err = d.batch(ctx, j, reqID, w)
	case opRange, opKNN:
		err = d.fleet(ctx, j, reqID, w)
	case opBulk:
		err = d.bulk(ctx, j, reqID, w)
	}
	end := time.Now()
	d.attempted.Add(1)
	if err != nil {
		if ctx.Err() != nil {
			return // the run is being torn down; not a measurement
		}
		d.failed.Add(1)
		if errors.Is(err, errCheck) {
			d.r.res.fail("%s %s: %v", opNames[j.op], d.objs[j.obj].id, err)
		}
		return
	}
	t := 0
	if j.traced {
		t = 1
	}
	switch j.route {
	case viaHTTP:
		w.lat[t][j.op] = append(w.lat[t][j.op], ms(end.Sub(from)))
		if reqID > 0 {
			w.span[j.op] = append(w.span[j.op], us(end.Sub(start)))
			cs := d.r.tr.span("client."+opNames[j.op], reqID, 0, start, end)
			cs.ID = reqID // server and replay spans name the request id as parent
			w.spans = append(w.spans, cs)
			d.replay(j, reqID, w)
		}
	case viaHandler:
		w.rung["handler."+opNames[j.op]] = append(w.rung["handler."+opNames[j.op]], us(end.Sub(start)))
	case viaStore:
		w.rung["store."+opNames[j.op]] = append(w.rung["store."+opNames[j.op]], us(end.Sub(start)))
		if j.op == opObserve {
			d.replayRefresh(int(j.obj), w)
		}
	}
}

// send dispatches one request over the socket or through the handler.
func (d *loadGen) send(ctx context.Context, j job, method, path string, body []byte, reqID int64, out any) (int, error) {
	var status, size int
	var err error
	if j.route == viaHandler {
		status, size, err = serveInProcess(d.n.handler, method, path, body, out)
	} else {
		status, size, err = d.c.call(ctx, method, path, body, reqID, out)
	}
	if err != nil {
		return size, err
	}
	switch status {
	case http.StatusOK:
		return size, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		d.shed.Add(1)
		return size, fmt.Errorf("shed: status %d", status)
	default:
		return size, fmt.Errorf("%w: status %d", errCheck, status)
	}
}

func appendPoint(b []byte, p hpm.Point) []byte {
	b = append(b, '[')
	b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
	return append(b, ']')
}

// observe sends object j.obj's point for tick j.arg.
func (d *loadGen) observe(ctx context.Context, j job, reqID int64, w *wstats) error {
	o := d.objs[j.obj]
	t := o.hist + int(j.arg)
	if j.route == viaStore {
		if err := d.n.st.ObserveBatch(o.id, o.track[t:t+1]); err != nil {
			return err
		}
		o.acked.Store(int64(t))
		return nil
	}
	body := appendPoint([]byte(`{"points":[`), o.track[t])
	body = append(body, "]}"...)
	var resp observeResp
	if _, err := d.send(ctx, j, http.MethodPost, "/objects/"+o.id+"/observe", body, reqID, &resp); err != nil {
		return err
	}
	if resp.Now == nil || *resp.Now != t || resp.Trained == nil || !*resp.Trained || resp.Training == nil {
		return fmt.Errorf("%w: observe answer %+v, want now %d and trained", errCheck, resp, t)
	}
	o.acked.Store(int64(t))
	return nil
}

// predict asks one point predict and scores it against the truth.
func (d *loadGen) predict(ctx context.Context, j job, reqID int64, w *wstats) error {
	o := d.objs[j.obj]
	h := pointHorizons[j.arg]
	before := int(o.acked.Load())
	var resp predictResp
	size, err := d.send(ctx, j, http.MethodGet, fmt.Sprintf("/objects/%s/predict?horizon=%d&k=1", o.id, h), nil, reqID, &resp)
	if err != nil {
		return err
	}
	w.bytes[opPredict] += int64(size)
	w.nb[opPredict]++
	after := int(o.acked.Load())
	if resp.Tq == nil || *resp.Tq < before+h || *resp.Tq > after+1+h || len(resp.Predictions) > 1 {
		return fmt.Errorf("%w: predict answer tq %v with %d predictions, want tq in [%d, %d]", errCheck, resp.Tq, len(resp.Predictions), before+h, after+1+h)
	}
	if len(resp.Predictions) == 0 {
		return nil
	}
	p := resp.Predictions[0]
	if err := validPrediction(p); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	d.score(o, p, *resp.Tq)
	w.tq = *resp.Tq // the traced replay asks the same query time
	return nil
}

// batch asks one batch predict at the evaluator's buckets.
func (d *loadGen) batch(ctx context.Context, j job, reqID int64, w *wstats) error {
	o := d.objs[j.obj]
	before := int(o.acked.Load())
	body := []byte(`{"horizons":[`)
	for i, h := range d.batchH {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(h), 10)
	}
	body = append(body, `],"k":1}`...)
	var resp batchResp
	if _, err := d.send(ctx, j, http.MethodPost, "/objects/"+o.id+"/predict", body, reqID, &resp); err != nil {
		return err
	}
	after := int(o.acked.Load())
	if len(resp.Results) != len(d.batchH) {
		return fmt.Errorf("%w: batch answered %d of %d horizons", errCheck, len(resp.Results), len(d.batchH))
	}
	now := resp.Results[0].Tq - d.batchH[0]
	if now < before || now > after+1 {
		return fmt.Errorf("%w: batch answered at now %d, want [%d, %d]", errCheck, now, before, after+1)
	}
	for i, res := range resp.Results {
		if res.Tq != now+d.batchH[i] || len(res.Predictions) > 1 {
			return fmt.Errorf("%w: batch result %d: tq %d with %d predictions", errCheck, i, res.Tq, len(res.Predictions))
		}
		for _, p := range res.Predictions {
			if err := validPrediction(p); err != nil {
				return fmt.Errorf("%w: %v", errCheck, err)
			}
			d.score(o, p, res.Tq)
		}
	}
	return nil
}

// score counts an answered prediction and whether it lands within
// hitDistance of the generated truth.
func (d *loadGen) score(o *object, p predJSON, tq int) {
	d.answered.Add(1)
	if hpm.Pt(p.X, p.Y).Dist(o.track[tq]) <= hitDistance {
		d.hits.Add(1)
	}
}

// fleetQuery is one range or kNN query's parameters.
type fleetQuery struct {
	knn    bool
	center hpm.Point
	h      int
}

func (q fleetQuery) rect() hpm.Rect {
	return hpm.Rect{Min: hpm.Pt(q.center.X-rangeHalf, q.center.Y-rangeHalf), Max: hpm.Pt(q.center.X+rangeHalf, q.center.Y+rangeHalf)}
}

func (q fleetQuery) path() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	v := url.Values{}
	v.Set("horizon", strconv.Itoa(q.h))
	if q.knn {
		v.Set("x", f(q.center.X))
		v.Set("y", f(q.center.Y))
		v.Set("k", strconv.Itoa(knnK))
		return "/query/knn?" + v.Encode()
	}
	r := q.rect()
	v.Set("minx", f(r.Min.X))
	v.Set("miny", f(r.Min.Y))
	v.Set("maxx", f(r.Max.X))
	v.Set("maxy", f(r.Max.Y))
	return "/query/range?" + v.Encode()
}

// queryFor centers a fleet query on an object's latest acknowledged point.
func (d *loadGen) queryFor(j job) fleetQuery {
	c := d.objs[j.center]
	return fleetQuery{knn: j.op == opKNN, center: c.track[c.acked.Load()], h: d.fleetH[j.arg]}
}

// fleet sends one range or kNN query and validates the answer's shape.
func (d *loadGen) fleet(ctx context.Context, j job, reqID int64, w *wstats) error {
	q := d.queryFor(j)
	var resp fleetResp
	if _, err := d.send(ctx, j, http.MethodGet, q.path(), nil, reqID, &resp); err != nil {
		return err
	}
	if err := validFleet(q, resp); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	d.fleetQueries.Add(1)
	d.results.Add(int64(len(resp.Results)))
	return nil
}

func validFleet(q fleetQuery, resp fleetResp) error {
	if resp.Horizon == nil || *resp.Horizon != q.h {
		return fmt.Errorf("fleet answer horizon %v, want %d", resp.Horizon, q.h)
	}
	if q.knn && len(resp.Results) > knnK {
		return fmt.Errorf("knn answered %d > k", len(resp.Results))
	}
	rect := q.rect()
	prev := -1.0
	for _, res := range resp.Results {
		p := hpm.Pt(res.X, res.Y)
		if res.ID == "" || res.Path == "" || res.Horizon != q.h || !p.IsFinite() {
			return fmt.Errorf("malformed fleet result %+v", res)
		}
		if !q.knn && !rect.Contains(p) {
			return fmt.Errorf("range result %+v outside %v", res, rect)
		}
		if q.knn {
			if math.Abs(res.Dist-p.Dist(q.center)) > 1e-6*(1+res.Dist) || res.Dist < prev {
				return fmt.Errorf("knn result %+v: bad or unordered distance", res)
			}
			prev = res.Dist
		}
	}
	return nil
}

// bulk sends one bulk observe: bulkGroup objects from j.obj, chunk j.arg.
func (d *loadGen) bulk(ctx context.Context, j job, reqID int64, w *wstats) error {
	group := d.objs[j.obj:min(int(j.obj)+bulkGroup, len(d.objs))]
	from := int(j.arg) * bulkChunk
	points := 0
	if j.route == viaStore {
		batch := make([]store.Observation, len(group))
		for i, o := range group {
			batch[i] = store.Observation{ID: o.id, Points: o.track[from : from+bulkChunk]}
			points += bulkChunk
		}
		if err := d.n.st.ObserveAll(batch); err != nil {
			return err
		}
	} else {
		body := []byte{'['}
		for i, o := range group {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"id":"`...)
			body = append(body, o.id...)
			body = append(body, `","points":[`...)
			for k, p := range o.track[from : from+bulkChunk] {
				if k > 0 {
					body = append(body, ',')
				}
				body = appendPoint(body, p)
			}
			body = append(body, "]}"...)
			points += bulkChunk
		}
		body = append(body, ']')
		w.bytes[opBulk] += int64(len(body))
		w.nb[opBulk]++
		var resp bulkResp
		if _, err := d.send(ctx, j, http.MethodPost, "/observe", body, reqID, &resp); err != nil {
			return err
		}
		if resp.Objects == nil || *resp.Objects != len(group) || resp.Points == nil || *resp.Points != points {
			return fmt.Errorf("%w: bulk answer %+v, want %d objects and %d points", errCheck, resp, len(group), points)
		}
	}
	for _, o := range group {
		o.acked.Store(int64(from + bulkChunk - 1))
	}
	return nil
}

// openLoopPlan describes an open-loop schedule.
type openLoopPlan struct {
	seconds  float64
	tickHz   float64             // observe ticks per second; 0 = no observes
	rates    map[opKind]float64  // read requests per second
	conns    int                 // worker count
	traceAt  time.Duration       // jobs due from here on are traced; <0 = never
	routeOf  func(obj int) route // how a traced object's observes travel
	rng      *rand.Rand          // seeded choice of objects, horizons
	objs     int                 // fleet size
	horizons map[opKind]int      // how many horizons a read op chooses from
	order    []int               // object order within a tick
}

// schedule builds the per-worker job lists of an open-loop window. With
// observes and at least two workers, the first worker carries every
// observe, in order, and the others the reads, so a read never queues
// behind a write on the client; otherwise reads alternate between all.
func schedule(p openLoopPlan) [][]job {
	var jobs []job
	window := time.Duration(p.seconds * float64(time.Second))
	if p.tickHz > 0 {
		tick := time.Duration(float64(time.Second) / p.tickHz)
		ticks := int(p.seconds * p.tickHz)
		for k := 0; k < ticks; k++ {
			for slot, obj := range p.order {
				due := time.Duration(k)*tick + time.Duration(slot)*tick/time.Duration(len(p.order))
				jobs = append(jobs, job{due: due, op: opObserve, obj: int32(obj), arg: int32(k)})
			}
		}
	}
	for _, op := range []opKind{opPredict, opBatch, opRange, opKNN} {
		n := int(p.seconds * p.rates[op])
		if n <= 0 {
			continue
		}
		// Evenly spaced from a seeded phase: a fixed rate, so queueing
		// comes from the system, not from bursts in the schedule.
		gap := window / time.Duration(n)
		phase := time.Duration(p.rng.Int63n(int64(gap)))
		for i := 0; i < n; i++ {
			j := job{due: time.Duration(i)*gap + phase, op: op, obj: int32(p.rng.Intn(p.objs)), center: int32(p.rng.Intn(p.objs))}
			if choices := p.horizons[op]; choices > 0 {
				j.arg = int32(p.rng.Intn(choices))
			}
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
	lists := make([][]job, p.conns)
	readers, first := p.conns, 0
	if p.tickHz > 0 && p.conns > 1 {
		readers, first = p.conns-1, 1
	}
	reads := 0
	for _, j := range jobs {
		if p.traceAt >= 0 && j.due >= p.traceAt {
			j.traced = true
			if j.op == opObserve && p.routeOf != nil {
				j.route = p.routeOf(int(j.obj))
			}
		}
		w := 0
		if j.op != opObserve {
			w = first + reads%readers
			reads++
		}
		lists[w] = append(lists[w], j)
	}
	return lists
}
