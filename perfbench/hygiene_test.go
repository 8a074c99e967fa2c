package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// runTiny runs one short, small workload in-process and returns its exit
// code, output and every address it listened on.
func runTiny(t *testing.T, workdir, workload string, trace int, onListen func(string)) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "0.05",
		"--trace", string(rune('0' + trace)), "--workdir", workdir, "--trace-out", filepath.Join(workdir, "traces")}
	code := run(args, &out, &errb, onListen)
	return code, out.String() + errb.String()
}

// released asserts that nothing a run opened is left: the work directory
// holds no run directory, every listener is closed, and the goroutine
// count is back to its baseline.
func released(t *testing.T, workdir string, addrs []string, baseline int) {
	t.Helper()
	entries, err := os.ReadDir(workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "perfbench-") {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
	if len(addrs) == 0 {
		t.Fatal("the run reported no listener")
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", a)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines left, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestMain starts the runtime's signal-forwarding goroutine, which lives
// for the rest of the process once any signal.Notify runs, so it is part
// of every test's goroutine baseline.
func TestMain(m *testing.M) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR1)
	signal.Stop(c)
	os.Exit(m.Run())
}

func TestRunReleasesEverything(t *testing.T) {
	for _, w := range []string{"live", "query", "backfill"} {
		for _, trace := range []int{0, 1} {
			workdir := t.TempDir()
			baseline := runtime.NumGoroutine()
			var mu sync.Mutex
			var addrs []string
			code, out := runTiny(t, workdir, w, trace, func(a string) {
				mu.Lock()
				addrs = append(addrs, a)
				mu.Unlock()
			})
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w, trace, code, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || len(res.Metrics) == 0 {
				t.Fatalf("%s trace %d: bad result line %q (%v)", w, trace, lines[len(lines)-1], err)
			}
			released(t, workdir, addrs, baseline)
		}
	}
}

func TestInterruptReleasesEverything(t *testing.T) {
	workdir := t.TempDir()
	baseline := runtime.NumGoroutine()
	var mu sync.Mutex
	var addrs []string
	var once sync.Once
	code, out := runTiny(t, workdir, "live", 0, func(a string) {
		mu.Lock()
		addrs = append(addrs, a)
		mu.Unlock()
		// The run is listening, so its signal handler is installed.
		once.Do(func() { syscall.Kill(os.Getpid(), syscall.SIGINT) })
	})
	if code == 0 {
		t.Fatalf("interrupted run exited 0\n%s", out)
	}
	if strings.Contains(out, `"correct"`) {
		t.Fatalf("interrupted run printed a result\n%s", out)
	}
	released(t, workdir, addrs, baseline)
}
