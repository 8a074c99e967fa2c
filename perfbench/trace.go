package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpm"
)

// span is one timed step of a traced request. Start and End are
// nanoseconds since the tracer started. Parent 0 marks a root: a client
// span, whose id is the request id, or the index-refresh replay after a
// write sent straight into the store.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds a traced run's spans in memory until the run ends. A nil
// tracer traces nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	serve [numOps][]float64 // µs of server spans, by op
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

// span makes a span with a fresh id.
func (t *tracer) span(name string, req, parent int64, start, end time.Time) span {
	return span{ID: t.newID(), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
}

// wrap is the server-side middleware: a request carrying a request id
// gets a server span, the child of the client span of the same request.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op := opOf(r)
		s := t.span("serve."+opNames[op], req, req, start, end)
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.serve[op] = append(t.serve[op], us(end.Sub(start)))
		t.mu.Unlock()
	})
}

// opOf classifies a request by method and path.
func opOf(r *http.Request) opKind {
	p := r.URL.Path
	switch {
	case p == "/observe":
		return opBulk
	case strings.HasSuffix(p, "/observe"):
		return opObserve
	case strings.HasSuffix(p, "/predict") && r.Method == http.MethodPost:
		return opBatch
	case strings.HasSuffix(p, "/predict"):
		return opPredict
	case p == "/query/knn":
		return opKNN
	default:
		return opRange
	}
}

// write stores every span, client and server, as JSON lines.
func (t *tracer) write(path string, client []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	all := append(append([]span(nil), client...), t.spans...)
	t.mu.Unlock()
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// models holds private copies of objects' predictors, taken while no
// write was in flight. The model rung is timed on these copies: the
// store's own predictors are mutated in place by extends under the
// object lock, which the benchmark cannot take.
type models map[int]*hpm.Predictor

// copyModels copies the predictors of the given objects, rebuilding each
// copy's Markov chain from the acknowledged track.
func copyModels(d *loadGen, idx []int) (models, error) {
	ms := models{}
	for _, i := range idx {
		o := d.objs[i]
		p, err := d.n.st.Predictor(o.id)
		if err != nil || p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			return nil, fmt.Errorf("copy model %s: %w", o.id, err)
		}
		cp, err := hpm.Load(&buf)
		if err != nil {
			return nil, fmt.Errorf("copy model %s: %w", o.id, err)
		}
		cp.Model().RebuildMarkov(0, o.track[:o.acked.Load()+1])
		ms[i] = cp
	}
	return ms, nil
}

// recentWindow is the store's default query window (Options.MaxRecent).
const recentWindow = 10

// recent is the query window ending at the object's acknowledged time.
func (o *object) recent() []hpm.TimedPoint {
	now := int(o.acked.Load())
	out := make([]hpm.TimedPoint, 0, recentWindow)
	for t := max(0, now-recentWindow+1); t <= now; t++ {
		out = append(out, hpm.TimedPoint{T: t, Loc: o.track[t]})
	}
	return out
}

// timeRung times one in-process call as a child span of parent.
func (d *loadGen) timeRung(w *wstats, name string, parent int64, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	w.rung[name] = append(w.rung[name], us(end.Sub(start)))
	w.spans = append(w.spans, d.r.tr.span(name, parent, parent, start, end))
}

// replay re-asks a traced read one rung down — the store call the
// handler makes, then the model call the store makes — and times the
// per-path model calls alongside.
func (d *loadGen) replay(j job, parent int64, w *wstats) {
	st := d.n.st
	o := d.objs[j.obj]
	model := d.models[int(j.obj)]
	switch j.op {
	case opPredict:
		tq := w.tq
		d.timeRung(w, "store.predict", parent, func() { st.Predict(o.id, tq, 1) })
		d.timeRung(w, "hpa.pattern", parent, func() { st.PredictPattern(o.id, tq, 1) })
		if model == nil {
			return
		}
		recent := o.recent()
		d.timeRung(w, "hpa.predict", parent, func() { model.Predict(recent, tq, 1) })
		var mk []hpm.Prediction
		d.timeRung(w, "markov.predict", parent, func() { mk, _ = model.PredictMarkov(recent, tq) })
		d.markovAsked.Add(1)
		if len(mk) == 0 || mk[0].Source != hpm.SourceMarkov {
			d.declined.Add(1)
		}
		d.timeRung(w, "motion.predict", parent, func() { model.PredictFallback(recent, tq) })
	case opBatch:
		now := int(o.acked.Load())
		tqs := make([]int, len(d.batchH))
		for i, h := range d.batchH {
			tqs[i] = now + h
		}
		d.timeRung(w, "store.batch", parent, func() { st.PredictBatch(o.id, tqs, 1) })
		if model != nil {
			recent := o.recent()
			d.timeRung(w, "hpa.batch", parent, func() { model.PredictBatch(recent, tqs, 1) })
		}
	case opRange:
		q := d.queryFor(j)
		d.timeRung(w, "spatial.range", parent, func() { st.QueryRange(q.rect(), q.h) })
	case opKNN:
		q := d.queryFor(j)
		d.timeRung(w, "spatial.knn", parent, func() { st.QueryNearest(q.center, knnK, q.h) })
	}
}

// replayRefresh times the fleet-index refresh an acknowledged observe
// triggers: one PredictBatch at every index horizon, on the model copy.
func (d *loadGen) replayRefresh(obj int, w *wstats) {
	model := d.models[obj]
	if model == nil {
		return
	}
	o := d.objs[obj]
	now := int(o.acked.Load())
	tqs := make([]int, len(d.fleetH))
	for i, h := range d.fleetH {
		tqs[i] = now + h
	}
	recent := o.recent()
	d.timeRung(w, "spatial.refresh", 0, func() { model.PredictBatch(recent, tqs, 1) })
}
