package obs

import (
	"encoding/json"
	"expvar"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAccumulate(t *testing.T) {
	c := &Counters{}
	c.AddChunk(8192)
	c.AddChunk(100)
	c.AddCompleted(3)
	c.AddCached(2)
	c.AddFailed(1)
	c.TierDone(50 * time.Millisecond)
	c.TierDone(25 * time.Millisecond)

	s := c.Snapshot()
	if s.Branches != 8292 || s.Chunks != 2 {
		t.Errorf("branches/chunks = %d/%d, want 8292/2", s.Branches, s.Chunks)
	}
	if s.ConfigsCompleted != 3 || s.ConfigsCached != 2 || s.ConfigsFailed != 1 {
		t.Errorf("configs = %d/%d/%d, want 3/2/1", s.ConfigsCompleted, s.ConfigsCached, s.ConfigsFailed)
	}
	if s.TiersCompleted != 2 || s.TierTime != 75*time.Millisecond {
		t.Errorf("tiers = %d (%s), want 2 (75ms)", s.TiersCompleted, s.TierTime)
	}
	if s.Elapsed <= 0 {
		t.Error("elapsed clock not anchored by producer touch")
	}
}

// TestNilCountersAreSafe: a nil *Counters is the documented "off"
// switch; every method must be callable on it.
func TestNilCountersAreSafe(t *testing.T) {
	var c *Counters
	c.Start()
	c.AddChunk(1)
	c.AddCompleted(1)
	c.AddCached(1)
	c.AddFailed(1)
	c.TierDone(time.Second)
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil snapshot = %+v, want zero", s)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := &Counters{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddChunk(10)
				c.AddCompleted(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Branches != 80_000 || s.Chunks != 8_000 || s.ConfigsCompleted != 8_000 {
		t.Errorf("lost updates: %+v", s)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{
		Branches: 1_000_000, Chunks: 123,
		ConfigsCompleted: 7, ConfigsCached: 5, ConfigsFailed: 0,
		TiersCompleted: 3, TierTime: time.Second, Elapsed: 2 * time.Second,
	}
	out := s.String()
	for _, want := range []string{"1000000 branches", "7 run", "5 cached", "tiers: 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q, missing %q", out, want)
		}
	}
}

func TestBranchesPerSecond(t *testing.T) {
	s := Snapshot{Branches: 4_000_000, Elapsed: 2 * time.Second}
	if got := s.BranchesPerSecond(); got != 2_000_000 {
		t.Errorf("BranchesPerSecond = %v, want 2e6", got)
	}
	if got := (Snapshot{Branches: 10}).BranchesPerSecond(); got != 0 {
		t.Errorf("zero-elapsed throughput = %v, want 0", got)
	}
}

func TestMarshalJSON(t *testing.T) {
	c := &Counters{}
	c.AddChunk(42)
	c.AddCached(1)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Branches != 42 || s.ConfigsCached != 1 {
		t.Errorf("round-tripped snapshot = %+v", s)
	}
	if !strings.Contains(string(b), `"configs_cached"`) {
		t.Errorf("JSON %s missing snake_case keys", b)
	}
}

func TestPublishIdempotent(t *testing.T) {
	c := &Counters{}
	c.AddChunk(5)
	c.Publish("obs-test-counters")
	// A second Publish with the same name must not panic (expvar
	// itself would); it is documented as a no-op.
	c.Publish("obs-test-counters")

	v := expvar.Get("obs-test-counters")
	if v == nil {
		t.Fatal("counters not published")
	}
	if !strings.Contains(v.String(), `"branches"`) {
		t.Errorf("published value %s lacks snapshot fields", v.String())
	}
}

// TestPublishRebinds checks the second registration of a name this
// package owns swaps the live counters instead of serving stale ones:
// the regression for long-lived callers starting a second run.
func TestPublishRebinds(t *testing.T) {
	c1 := &Counters{}
	c1.AddChunk(7)
	c1.Publish("obs-test-rebind")
	c2 := &Counters{}
	c2.AddCompleted(3)
	c2.Publish("obs-test-rebind") // must not panic, must rebind
	v := expvar.Get("obs-test-rebind")
	if v == nil {
		t.Fatal("counters not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatal(err)
	}
	if s.Branches != 0 || s.ConfigsCompleted != 3 {
		t.Errorf("published snapshot %+v still reflects the first run", s)
	}
}

// TestPublishForeignNameUntouched checks Publish leaves names
// registered directly with expvar alone.
func TestPublishForeignNameUntouched(t *testing.T) {
	foreign := expvar.NewInt("obs-test-foreign")
	foreign.Set(99)
	c := &Counters{}
	c.Publish("obs-test-foreign") // must neither panic nor rebind
	if got := expvar.Get("obs-test-foreign").String(); got != "99" {
		t.Errorf("foreign var overwritten: %s", got)
	}
}

// TestPublishConcurrent hammers one name from many goroutines; run
// under -race this is the regression for the Get/Publish TOCTOU.
func TestPublishConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Counters{}
			c.AddChunk(1)
			c.Publish("obs-test-concurrent")
		}()
	}
	wg.Wait()
	if expvar.Get("obs-test-concurrent") == nil {
		t.Fatal("counters not published")
	}
}

// TestReset checks Reset zeroes the counters and rearms the
// elapsed-time anchor.
func TestReset(t *testing.T) {
	c := &Counters{}
	c.AddChunk(100)
	c.AddCompleted(2)
	c.TierDone(time.Second)
	c.Reset()
	s := c.Snapshot()
	if s.Branches != 0 || s.Chunks != 0 || s.ConfigsCompleted != 0 ||
		s.TiersCompleted != 0 || s.TierTime != 0 || s.Elapsed != 0 {
		t.Errorf("snapshot after Reset = %+v", s)
	}
	c.AddChunk(1) // re-anchors the clock
	if c.Snapshot().Elapsed <= 0 {
		t.Error("elapsed clock not rearmed after Reset")
	}
	var nilC *Counters
	nilC.Reset() // must not panic
}

func TestMergeAndSub(t *testing.T) {
	var job Counters
	job.AddChunk(100)
	job.AddChunk(50)
	job.AddCompleted(2)
	job.AddCached(1)
	job.AddFailed(1)
	job.TierDone(3 * time.Second)

	var global Counters
	prev := Snapshot{}
	snap := job.Snapshot()
	global.Merge(snap.Sub(prev))
	prev = snap

	// More per-job activity, merged as a delta: each increment must
	// land in the aggregate exactly once.
	job.AddChunk(25)
	job.AddCompleted(1)
	snap = job.Snapshot()
	global.Merge(snap.Sub(prev))

	g := global.Snapshot()
	if g.Branches != 175 || g.Chunks != 3 {
		t.Errorf("merged branches/chunks = %d/%d, want 175/3", g.Branches, g.Chunks)
	}
	if g.ConfigsCompleted != 3 || g.ConfigsCached != 1 || g.ConfigsFailed != 1 {
		t.Errorf("merged configs = %d/%d/%d, want 3/1/1",
			g.ConfigsCompleted, g.ConfigsCached, g.ConfigsFailed)
	}
	if g.TiersCompleted != 1 || g.TierTime != 3*time.Second {
		t.Errorf("merged tiers = %d (%s), want 1 (3s)", g.TiersCompleted, g.TierTime)
	}
}

func TestMergeNilSafe(t *testing.T) {
	var c *Counters
	c.Merge(Snapshot{Branches: 1}) // must not panic
}

func TestPublishedSortedAndStable(t *testing.T) {
	var a, b, c Counters
	// Deliberately publish out of name order.
	c.Publish("obs-test-published-c")
	a.Publish("obs-test-published-a")
	b.Publish("obs-test-published-b")
	a.AddChunk(10)
	b.AddCompleted(2)

	ours := func(sets []NamedSnapshot) []NamedSnapshot {
		var out []NamedSnapshot
		for _, s := range sets {
			if strings.HasPrefix(s.Name, "obs-test-published-") {
				out = append(out, s)
			}
		}
		return out
	}

	sets := Published()
	if !sort.SliceIsSorted(sets, func(i, j int) bool { return sets[i].Name < sets[j].Name }) {
		t.Errorf("Published() not sorted: %v", sets)
	}
	got := ours(sets)
	if len(got) != 3 {
		t.Fatalf("got %d of our sets, want 3", len(got))
	}
	wantNames := []string{"obs-test-published-a", "obs-test-published-b", "obs-test-published-c"}
	for i, w := range wantNames {
		if got[i].Name != w {
			t.Errorf("set %d = %q, want %q", i, got[i].Name, w)
		}
	}
	if got[0].Branches != 10 || got[1].ConfigsCompleted != 2 {
		t.Errorf("snapshots lost values: %+v", got)
	}

	// A second call must return the same names in the same order, and
	// rebinding a name must surface the new counters' values.
	var a2 Counters
	a2.AddChunk(99)
	a2.Publish("obs-test-published-a")
	again := ours(Published())
	if len(again) != 3 {
		t.Fatalf("second call lost sets: %d", len(again))
	}
	for i := range again {
		if again[i].Name != got[i].Name {
			t.Errorf("ordering unstable: %q vs %q", again[i].Name, got[i].Name)
		}
	}
	if again[0].Branches != 99 {
		t.Errorf("rebound set reads %d branches, want 99", again[0].Branches)
	}
}

// TestTeeForwardsCounts checks that a teed set records every count
// itself and forwards it, and that Reset stays local.
func TestTeeForwardsCounts(t *testing.T) {
	var own, live Counters
	own.Tee(&live)
	own.AddChunk(100)
	own.AddCompleted(2)
	own.AddCached(3)
	own.AddFailed(1)
	own.TierDone(time.Second)
	own.Merge(Snapshot{Branches: 5, Chunks: 1})
	want := Snapshot{Branches: 105, Chunks: 2, ConfigsCompleted: 2, ConfigsCached: 3, ConfigsFailed: 1, TiersCompleted: 1, TierTime: time.Second}
	for name, c := range map[string]*Counters{"own": &own, "live": &live} {
		got := c.Snapshot()
		got.Elapsed = 0
		if got != want {
			t.Fatalf("%s = %+v, want %+v", name, got, want)
		}
	}
	own.Reset()
	if got := live.Snapshot().Branches; got != 105 {
		t.Fatalf("Reset reached the tee: live Branches = %d", got)
	}
	var untee Counters
	untee.Tee(nil)
	untee.AddChunk(1) // a nil tee forwards nothing
}
