package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/trace"
)

// executorConfigs is one batch of classic, metered,
// finite-first-level and modern configs, enough for every worker.
func executorConfigs() []core.Config {
	axes := configAxes()
	var configs []core.Config
	for _, name := range []string{"mixed", "modern", "path"} {
		configs = append(configs, axes[name]...)
	}
	return configs
}

// TestExecutorEmptySource pins the edge where a worker builds its
// predictors on first use: a source with no records reaches no
// worker, yet every config still comes back as named zero-branch
// Metrics, the same for BPT2, BPT1 and in-memory streams as for
// RunConfigsCtx over an empty trace.
func TestExecutorEmptySource(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	configs := executorConfigs()
	empty := &trace.Trace{Name: "empty"}
	for _, opt := range []Options{{}, {Warmup: 10, Chunk: 7}} {
		want, err := RunConfigsCtx(context.Background(), configs, empty, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range want {
			if name := configs[i].MustBuild().Name(); m.Name != name || m.Branches != 0 || m.Mispredicts != 0 {
				t.Fatalf("RunConfigsCtx entry %d over an empty trace = %+v, want named %q with no branches", i, m, name)
			}
		}
		sources := map[string]func() trace.BatchSource{
			"bpt2": func() trace.BatchSource {
				rd, err := trace.NewReader(bytes.NewReader(encodeBPT2(t, empty, 0)))
				if err != nil {
					t.Fatal(err)
				}
				return rd
			},
			"bpt1": func() trace.BatchSource {
				rd, err := trace.NewReader(bytes.NewReader(encodeBPT1(t, empty)))
				if err != nil {
					t.Fatal(err)
				}
				return rd
			},
			"memory": func() trace.BatchSource { return empty.NewSource().(trace.BatchSource) },
		}
		for name, open := range sources {
			got, err := streamChecked(t, context.Background(), configs, open(), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: empty stream returned %d entries, want %d", name, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: empty stream entry %d = %+v, want %+v", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExecutorInvalidConfig pins the other edge: every config is
// validated before any worker starts, so an invalid config at index k
// fails the whole batch with an error naming config k, counts one
// failed config and no simulated branch, and leaves no goroutine
// behind, on both entry points.
func TestExecutorInvalidConfig(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := kernelTrace(31, 50_000)
	valid := executorConfigs()
	baseline := runtime.NumGoroutine()
	for _, k := range []int{0, 5, len(valid)} {
		configs := append(append(append([]core.Config(nil), valid[:k]...),
			core.Config{Scheme: core.SchemeGShare, RowBits: 20, ColBits: 20}), valid[k:]...)
		entries := map[string]func(opt Options) ([]Metrics, error){
			"RunConfigsCtx": func(opt Options) ([]Metrics, error) {
				return RunConfigsCtx(context.Background(), configs, tr, opt)
			},
			"RunConfigsStream": func(opt Options) ([]Metrics, error) {
				return streamChecked(t, context.Background(), configs, tr.NewSource().(trace.BatchSource), opt)
			},
		}
		for name, run := range entries {
			var counters obs.Counters
			ms, err := run(Options{Obs: &counters})
			if err == nil || ms != nil {
				t.Fatalf("%s, invalid config %d: got %d metrics, err %v; want none and an error", name, k, len(ms), err)
			}
			if prefix := fmt.Sprintf("sim: config %d: ", k); !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%s: error %q does not name config %d", name, err, k)
			}
			s := counters.Snapshot()
			if s.ConfigsFailed != 1 || s.Branches != 0 || s.Chunks != 0 {
				t.Errorf("%s, invalid config %d: failed %d, branches %d, chunks %d; want 1, 0, 0",
					name, k, s.ConfigsFailed, s.Branches, s.Chunks)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
