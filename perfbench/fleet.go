package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hpm"
	"hpm/internal/spatial"
	"hpm/serve"
	"hpm/store"
)

// Fleet shape shared by every workload.
const (
	period = 60 // hpm.Config.Period: samples per cycle
	// histPeriods is how many whole periods of history a trained fleet
	// object carries into the measured window; each object adds a
	// seed-chosen part of one more period so period boundaries stagger.
	histPeriods = 8
	// backfillPeriods is the history the backfill workload bulk-loads:
	// one period past the store's default MinTrainPeriods.
	backfillPeriods = store.DefaultMinTrainPeriods + 1
	// maxHorizon is the farthest point-predict horizon; tracks extend
	// this far past the last observed point so every answer has a truth.
	maxHorizon = 200
	// cellSize is hpmserve's default -index-cell.
	cellSize = 50
	// hitDistance is the evaluator's default hit distance D.
	hitDistance = 30
	// setupReps is how many times set-up runs per run; setup_s is the
	// median and only the last fleet serves the workload.
	setupReps = 5
	// reopenReps is how many Close/Open/first-predict cycles a run
	// times; reopen_s is their median.
	reopenReps = 3
)

// pointHorizons are the point-predict horizons, in ticks.
var pointHorizons = []int{5, 20, 50, 100, 200}

// datasets are assigned round-robin so every answering path works.
var datasets = []hpm.Dataset{hpm.DatasetBike, hpm.DatasetCow, hpm.DatasetCar, hpm.DatasetAirplane}

// object is one tracked object: its generated ground truth and how much
// of it the store has acknowledged.
type object struct {
	id    string
	track []hpm.Point // generated truth, indexed by store time
	hist  int         // points ingested before the measured window
	// acked is the store time of the object's last acknowledged point.
	acked atomic.Int64
}

// makeFleet generates n objects with histP whole periods of history and
// at least extra points of truth beyond it. The tracks come from a fixed
// pool — track k is dataset k mod 4 generated with dataset seed pool+k —
// so every seed runs a fleet of the same make-up. The seed decides which
// object gets which track and, when phased, which object's history runs
// how far into one more period: the phases are spread evenly over the
// period, which staggers period boundaries.
func makeFleet(seed, pool int64, n, histP int, phased bool, extra int) []*object {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	phases := rng.Perm(n) // phase i*period/n goes to object phases[i]
	objs := make([]*object, n)
	for i := range objs {
		hist := histP * period
		if phased {
			hist += phases[i] * period / n
		}
		k := perm[i]
		spec := hpm.DefaultDatasetSpec(datasets[k%len(datasets)], pool+int64(k))
		spec.Period = period
		spec.SubTrajectories = (hist+extra)/period + 2
		o := &object{
			id:    fmt.Sprintf("obj-%05d", i),
			track: hpm.GenerateDataset(spec).Points(),
			hist:  hist,
		}
		o.acked.Store(int64(hist - 1))
		objs[i] = o
	}
	return objs
}

// storeOptions are the store options every workload runs with: durable
// with a synced WAL, fleet index on at hpmserve's default cell, online
// evaluation on, the Markov path at its default order, and the paper's
// default Eps, MinPts and d.
func storeOptions() store.Options {
	return store.Options{
		Config:     hpm.Config{Period: period},
		WALNoSync:  false,
		FleetIndex: &spatial.Config{CellSize: cellSize},
	}
}

// serveLimits are hpmserve's default admission limits.
func serveLimits() serve.Limits {
	return serve.Limits{
		MaxInflight:    256,
		RequestTimeout: 30 * time.Second,
		ShedPolicy:     "priority",
		MaxSubscribers: serve.DefaultMaxSubscribers,
	}
}

// node is one open durable store served on a loopback port.
type node struct {
	dir     string
	st      *store.Store
	handler http.Handler // serve.NewHandler, without the trace middleware
	srv     *http.Server
	addr    string
	served  chan struct{}
	closed  bool
}

// closeNodes releases every node still open.
func (r *runner) closeNodes() {
	for n := range r.nodes {
		r.closeNode(n)
	}
}

// openNode opens (or creates) the durable store at dir and serves it on
// 127.0.0.1:0. The node is registered for release.
func (r *runner) openNode(dir string) (*node, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir, storeOptions())
	if err != nil {
		return nil, 0, fmt.Errorf("open store: %w", err)
	}
	openTime := time.Since(t0)
	n := &node{dir: dir, st: st, handler: serve.NewHandler(st, serveLimits()), served: make(chan struct{})}
	r.nodes[n] = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.closeNode(n)
		return nil, 0, err
	}
	n.addr = ln.Addr().String()
	n.srv = &http.Server{
		Handler:           r.tr.wrap(n.handler),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go func() {
		defer close(n.served)
		n.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	if r.cfg.onListen != nil {
		r.cfg.onListen(n.addr)
	}
	return n, openTime, nil
}

// closeNode shuts the node's server down and closes its store; repeated
// calls are no-ops. The store's error is returned once.
func (r *runner) closeNode(n *node) error {
	if n.closed {
		return nil
	}
	n.closed = true
	delete(r.nodes, n)
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			n.srv.Close()
		}
		cancel()
		<-n.served
	}
	return n.st.Close()
}

// loadHistory ingests every object's pre-window history straight into
// the store, a chunk of objects per ObserveAll (one WAL group commit).
func loadHistory(ctx context.Context, st *store.Store, objs []*object) error {
	const chunk = 32
	for i := 0; i < len(objs); i += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(i+chunk, len(objs))
		batch := make([]store.Observation, 0, end-i)
		for _, o := range objs[i:end] {
			batch = append(batch, store.Observation{ID: o.id, Points: o.track[:o.hist]})
			o.acked.Store(int64(o.hist - 1))
		}
		if err := st.ObserveAll(batch); err != nil {
			return fmt.Errorf("load history: %w", err)
		}
	}
	return nil
}

// setUpNode builds a node reps times, each from an empty directory to a
// ready /readyz, with fill loading what the workload needs first. It keeps
// the last node and records each repetition's wall time; their median is
// setup_s.
func (r *runner) setUpNode(ctx context.Context, c *client, reps int, name string, fill func(*node) error) (*node, error) {
	var n *node
	for rep := 0; rep < reps; rep++ {
		if n != nil {
			if err := r.closeNode(n); err != nil {
				return nil, fmt.Errorf("close set-up store: %w", err)
			}
			os.RemoveAll(n.dir)
		}
		t0 := time.Now()
		var err error
		if n, _, err = r.openNode(filepath.Join(r.root, fmt.Sprintf("%s-%d", name, rep))); err != nil {
			return nil, err
		}
		if err := fill(n); err != nil {
			return nil, err
		}
		c.base = "http://" + n.addr
		if err := c.ready(ctx); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	return n, nil
}

// setupFleet sets up a trained, indexed, checkpointed fleet ready to serve.
func (r *runner) setupFleet(ctx context.Context, c *client, objs []*object) (*node, error) {
	n, err := r.setUpNode(ctx, c, setupReps, "fleet", func(n *node) error {
		if err := loadHistory(ctx, n.st, objs); err != nil {
			return err
		}
		if err := n.st.Flush(); err != nil {
			return fmt.Errorf("set-up training: %w", err)
		}
		if err := n.st.Checkpoint(); err != nil {
			return fmt.Errorf("set-up checkpoint: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		st, err := n.st.Stats(o.id)
		if err != nil || !st.Trained {
			r.res.fail("set-up: %s not trained (err %v)", o.id, err)
		}
	}
	return n, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
