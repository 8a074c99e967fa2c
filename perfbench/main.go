// Command perfbench is the end-to-end benchmark of the hpm service: one
// Go process holds a durable store, an http.Server on a loopback port
// wrapping serve.NewHandler with hpmserve's default limits, and the load
// generator that drives it over at most GOMAXPROCS connections.
//
//	go build -o perfbench . && ./perfbench --workload live --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	live      open loop on a trained fleet: per-object observes every tick,
//	          point/batch predicts, range/kNN queries, periodic checkpoints
//	query     open loop, read-only, on a larger trained fleet
//	backfill  closed loop bulk load through POST /observe into a fresh
//	          store, then Flush, Close, Open and verification reads
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run, and the spans are written to --trace-out. Every
// response is validated and the run ends with correctness checks; a
// failed check makes the process exit 1. The process starts no child
// process and releases its listener, store and data directory on every
// exit path, SIGINT and SIGTERM included.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runDeadline bounds one run, set-up and checks included, so a wedged run
// still releases everything and exits well inside three minutes.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// config is one run's parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	traceOut string
	// scale multiplies fleet sizes and offered rates; tests run tiny
	// fleets with it.
	scale float64
	// onListen, when set, is told every address the run listens on.
	onListen func(addr string)
}

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout, stderr io.Writer, onListen func(string)) (code int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{onListen: onListen}
	fs.StringVar(&cfg.workload, "workload", "", "workload: live, query or backfill")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "parent of the run's temporary data directory")
	fs.StringVar(&cfg.traceOut, "trace-out", ".bench_build/traces", "directory the traced run writes its spans to")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplier on fleet sizes and offered rates")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || cfg.scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload live|query|backfill, --seconds >= 1 and --scale > 0\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, err := execute(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	line, _ := json.Marshal(res.summary(cfg.trace))
	fmt.Fprintln(stdout, string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// execute runs the workload with every resource it opens registered for
// release; a panic anywhere on the run's own goroutine is turned into an
// error after the releases ran.
func execute(ctx context.Context, cfg config, stdout io.Writer) (res *result, err error) {
	var rel releaser
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		rel.releaseAll()
	}()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	rel.add(func() { os.RemoveAll(root) })
	r := &runner{cfg: cfg, root: root, rel: &rel, out: stdout, res: newResult(), nodes: map[*node]bool{}}
	rel.add(r.closeNodes)
	if err := workloads[cfg.workload](ctx, r); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("interrupted: %w", context.Cause(ctx))
	}
	r.res.attempted, r.res.failed = r.t.attempted.Load(), r.t.failed.Load()
	return r.res, nil
}

// releaser runs registered releases in reverse order, once each.
type releaser struct{ fns []func() }

func (r *releaser) add(f func()) { r.fns = append(r.fns, f) }

func (r *releaser) releaseAll() {
	for i := len(r.fns) - 1; i >= 0; i-- {
		r.fns[i]()
	}
	r.fns = nil
}

// errCheck marks a failed correctness check, as opposed to a run that
// could not complete.
var errCheck = errors.New("check failed")
