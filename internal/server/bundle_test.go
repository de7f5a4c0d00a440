package server

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// seedKernels makes the writer build and publish every kernel once, the way
// a first read of each does, and leaves nothing pinned.
func seedKernels(t *testing.T, s *Server) {
	t.Helper()
	for k := kernWCC; k < numParts; k++ {
		b, err := s.acquire(context.Background(), nil, k)
		if err != nil {
			t.Fatalf("seed %s: %v", kernelNames[k], err)
		}
		b.unpin()
	}
}

// digest folds everything a reader can see in b into one number: every
// row with its weights and times, the labels, sizes, ranks and degrees.
func digest(b *bundle) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	g := b.parts[partGraph].g
	for v := int32(0); v < g.NumVertices(); v++ {
		ws, ts := g.NeighborWeights(v), g.NeighborTimes(v)
		for i, w := range g.Neighbors(v) {
			mix(uint64(w))
			mix(uint64(math.Float32bits(ws[i])))
			mix(uint64(ts[i]))
		}
		mix(uint64(0xffff_ffff)) // row end
	}
	if p := b.parts[kernWCC]; p != nil {
		for i, l := range p.cc.Label {
			mix(uint64(l))
			mix(uint64(p.sizes[i]))
		}
	}
	for _, k := range []kernel{kernPR, kernDeg} {
		if p := b.parts[k]; p != nil {
			for _, x := range p.vec {
				mix(math.Float64bits(x))
			}
		}
	}
	return h
}

// churnEdits is one bump of a steady churn: deletes of the oldest edges it
// inserted (once a few bumps' worth are live), then inserts of fresh random
// ones, half and half, so the graph keeps its size. live is the FIFO of
// inserted edges. No two edits of a bump share an endpoint pair, so the
// server's in-batch dedup drops none and applied counts every edit.
func churnEdits(rng *rand.Rand, n int32, size int, live *[][2]int32, out []dyngraph.Edit) []dyngraph.Edit {
	out = out[:0]
	clash := func(u, v int32) bool {
		for _, e := range out {
			if (e.Src == u && e.Dst == v) || (e.Src == v && e.Dst == u) {
				return true
			}
		}
		return false
	}
	for len(out) < size/2 && len(*live) > 4*size {
		e := (*live)[0]
		*live = (*live)[1:]
		if !clash(e[0], e[1]) {
			out = append(out, dyngraph.Edit{Src: e[0], Dst: e[1], Delete: true})
		}
	}
	for len(out) < size {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v || clash(u, v) {
			continue
		}
		*live = append(*live, [2]int32{u, v})
		out = append(out, dyngraph.Edit{Src: u, Dst: v, Weight: 1})
	}
	return out
}

// enqueueAll pushes edits into the ingest queue, waiting out backpressure.
func enqueueAll(t *testing.T, s *Server, edits []dyngraph.Edit) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(edits) > 0 {
		edits = edits[s.enqueue(edits).Accepted:]
		if len(edits) > 0 && time.Now().After(deadline) {
			t.Fatal("ingest queue stayed full for 10s")
		}
	}
}

// bumpAndRead applies one batch of edits and then reads every kernel, so
// the writer keeps publishing (and recycling) version after version.
func bumpAndRead(t *testing.T, s *Server, edits []dyngraph.Edit) {
	t.Helper()
	target := s.Applied() + int64(len(edits))
	enqueueAll(t, s, edits)
	waitApplied(t, s, target)
	seedKernels(t, s)
}

// TestBundlePinHammer: readers pin published bundles and hold each across
// several bumps while the writer publishes, retires and recycles storage
// under them; every answer a reader re-reads from a bundle it holds must be
// byte-equal to what it read when it pinned the bundle. Run under -race
// (recycled storage is also poisoned under go test), this is the proof that
// the writer never reuses memory a pinned bundle reads.
func TestBundlePinHammer(t *testing.T) {
	const n, bumps, readers = 512, 80, 4
	cfg := testConfig(n)
	cfg.BatchSize = 32
	s, _ := startServer(t, cfg)
	rng := rand.New(rand.NewSource(21))
	var live [][2]int32
	var edits []dyngraph.Edit
	for i := 0; i < 8; i++ {
		edits = churnEdits(rng, n, 256, &live, edits)
		enqueueAll(t, s, edits)
	}
	waitApplied(t, s, 8*256)
	seedKernels(t, s)

	var published sync.WaitGroup
	done := make(chan struct{})
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var held [readers]int
	for r := 0; r < readers; r++ {
		published.Add(1)
		go func(r int) {
			defer published.Done()
			for !stopped() {
				b := s.pinCurrent()
				want := digest(b)
				// Hold the bundle until the writer has moved two versions on.
				for s.cur.Load().version < b.version+2 && !stopped() {
					time.Sleep(100 * time.Microsecond)
				}
				if got := digest(b); got != want {
					t.Errorf("reader %d: bundle at version %d changed while pinned", r, b.version)
				}
				if s.cur.Load().version >= b.version+2 {
					held[r]++
				}
				b.unpin()
			}
		}(r)
	}
	for i := 0; i < bumps; i++ {
		bumpAndRead(t, s, churnEdits(rng, n, 32, &live, edits))
	}
	close(done)
	published.Wait()
	for r, n := range held {
		if n == 0 {
			t.Errorf("reader %d never held a bundle across a bump", r)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The writer has exited, so its state is safe to read: retired bundles
	// were recycled as they were released, not accumulated.
	if len(s.b.retired) > readers+1 {
		t.Fatalf("%d retired bundles still held after every reader let go", len(s.b.retired))
	}
	if v := s.cur.Load().version; v < int64(bumps) {
		t.Fatalf("published version %d after %d bumps", v, bumps)
	}
}

// TestUnpinnedBundleIsRecycled shows what the pins protect: a bundle read
// without one is taken back by the writer once it is retired — its storage
// poisoned under go test, then reused by later versions — so what it reads
// differs from what it held while pinned.
func TestUnpinnedBundleIsRecycled(t *testing.T) {
	const n = 256
	s, _ := startServer(t, testConfig(n))
	rng := rand.New(rand.NewSource(3))
	var live [][2]int32
	edits := churnEdits(rng, n, 512, &live, nil)
	enqueueAll(t, s, edits)
	waitApplied(t, s, 512)
	seedKernels(t, s)
	old := s.pinCurrent()
	before := digest(old)
	old.unpin()
	for i := 0; i < 6; i++ {
		bumpAndRead(t, s, churnEdits(rng, n, 32, &live, edits))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	same := func() (same bool) {
		defer func() { // poisoned row offsets are out of range: reading them panics
			if recover() != nil {
				same = false
			}
		}()
		return digest(old) == before
	}
	if same() {
		t.Fatal("a retired, unpinned bundle still reads as it did: its storage was never recycled")
	}
}

// TestReadYourWrites: any read sent after /stats shows applied = N sees all
// N updates — after an unread stretch (the read waits for the catch-up
// build), while reads keep up (the writer publishes before the counter
// moves), and with a reader polling /stats concurrently with ingest. The
// graph is a star growing around vertex 0, so a read's top degree and the
// size of 0's component count the updates it sees.
func TestReadYourWrites(t *testing.T) {
	// Named for the maintenance mode it runs: graphd keeps its analytics
	// incrementally.
	t.Run("incremental=true", func(t *testing.T) {
		const n, perBatch, rounds = 1024, 40, 24
		s, ts := startServer(t, testConfig(n))
		sees := func(c *wire.Client) (deg float64, size int64) {
			top, err := c.TopDegree(1, 5*time.Second)
			if err != nil {
				t.Errorf("topdegree: %v", err)
				return
			}
			comp, err := c.Component(0, 5*time.Second)
			if err != nil {
				t.Errorf("component: %v", err)
				return
			}
			return top.Results[0].Score, comp.Size
		}
		applied := func() int64 {
			var st Stats
			if code := getJSON(t, ts.URL, "/stats", &st); code != http.StatusOK {
				t.Fatalf("/stats = %d", code)
			}
			return st.Applied
		}

		stop := make(chan struct{})
		var checker sync.WaitGroup
		checker.Add(1)
		c, cc := startWire(t, s), startWire(t, s)
		go func() { // the concurrent reader: stats first, then reads
			defer checker.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var st Stats
				raw, err := cc.Stats(5 * time.Second)
				if err == nil {
					err = json.Unmarshal(raw, &st)
				}
				if err != nil {
					t.Errorf("stats: %v", err)
					return
				}
				if deg, size := sees(cc); int64(deg) < st.Applied || size < st.Applied+1 {
					t.Errorf("after /stats applied=%d a read saw degree %v, component size %d", st.Applied, deg, size)
					return
				}
			}
		}()

		next := int32(1)
		for r := 0; r < rounds; r++ {
			var batch []wire.IngestEdit
			for i := 0; i < perBatch; i++ {
				batch = append(batch, wire.IngestEdit{Src: 0, Dst: next})
				next++
			}
			if code, res, _ := postIngest(t, ts.URL, batch); code != http.StatusAccepted || res.Accepted != perBatch {
				t.Fatalf("round %d ingest = %d %+v", r, code, res)
			}
			want := int64(next - 1)
			for applied() < want {
				time.Sleep(time.Millisecond)
			}
			if r%6 < 3 {
				continue // an unread stretch, apart from the concurrent reader
			}
			if deg, size := sees(c); int64(deg) != want || size != want+1 {
				t.Fatalf("round %d: /stats showed applied=%d, a read then saw degree %v and component size %d", r, want, deg, size)
			}
		}
		close(stop)
		checker.Wait()
	})
}

// TestIncrPendingTracksLag is the regression test for a delta log trimmed
// only by its size bound: with MaxPendingEdits=1000, twelve 200-edit batches
// each followed by a read used to fill the log to 1000/1000 and fail the
// incr-pending readiness check for good. The log now holds only what no
// published bundle reflects, so after each read it is empty; an unread
// stretch past the bound leaves the server ready (the next read pays one
// full recompute, and trims).
func TestIncrPendingTracksLag(t *testing.T) {
	cfg := testConfig(4096)
	cfg.MaxPendingEdits = 1000
	s, ts := startServer(t, cfg)
	next := int32(0)
	batch := func() []wire.IngestEdit { // a growing path: every edit new
		var b []wire.IngestEdit
		for i := 0; i < 200; i++ {
			b = append(b, wire.IngestEdit{Src: next, Dst: next + 1})
			next++
		}
		return b
	}
	var applied int64
	for i := 0; i < 12; i++ {
		postIngest(t, ts.URL, batch())
		applied += 200
		waitApplied(t, s, applied)
		if code := getJSON(t, ts.URL, "/query/component?v=1", nil); code != http.StatusOK {
			t.Fatalf("batch %d: component = %d", i, code)
		}
		if c := readyCheck(t, s.Readiness(), "incr-pending"); !c.OK {
			t.Fatalf("batch %d: incr-pending failing with reads keeping up: %s", i, c.Detail)
		}
		if st := s.StatsNow(); st.PendingDeltaEdits > 200 {
			t.Fatalf("batch %d: %d edits pending after a read, want at most the one unpublished batch", i, st.PendingDeltaEdits)
		}
	}
	for i := 0; i < 8; i++ { // 1600 unread edits, past the bound
		postIngest(t, ts.URL, batch())
		applied += 200
		waitApplied(t, s, applied)
	}
	if c := readyCheck(t, s.Readiness(), "incr-pending"); !c.OK {
		t.Fatalf("incr-pending failing over an unread stretch (nobody would read it back to ready): %s", c.Detail)
	}
	if code := getJSON(t, ts.URL, "/query/component?v=1", nil); code != http.StatusOK {
		t.Fatalf("catch-up component = %d", code)
	}
	if st := s.StatsNow(); st.PendingDeltaEdits != 0 || st.SnapshotVersion != st.Version {
		t.Fatalf("after the catch-up read: %d edits pending, snapshot %d of version %d", st.PendingDeltaEdits, st.SnapshotVersion, st.Version)
	}
}

// TestSteadyStateBumpBudget holds a bump's cost flat through the whole
// server — delta log, incremental states, published and recycled bundles —
// over 10,000 bumps of 50 edits (half inserts, half deletes) on an R-MAT
// s11 graph, with a component, a pagerank and a topdegree read after each:
// bytes allocated per bump stay under the budget, the mean bytes and time
// of the last 2,000 bumps are within 10% of the first 2,000's, heap in use
// stays bounded, and no read waits on a build. Time is CPU time (a wait for
// a core does not count) in units of a yardstick — a full PageRank of the
// preloaded graph, run after every 10 bumps — because under go test ./...
// other packages, and on a shared host other tenants, slow the cores by more
// than the drift this looks for, for seconds at a time; the yardstick slows
// with them. (Over 1,000 bumps that ratio still spreads ±5%, too close to
// the bound; over 2,000 it is half that.)
func TestSteadyStateBumpBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000 bumps")
	}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const (
		scale, perBump, bumps, window = 11, 50, 10_000, 2000
		budget                        = 48 << 10 // bytes per bump, reads included
	)
	cfg := testConfig(1 << scale)
	cfg.BatchSize = perBump
	s, _ := startServer(t, cfg)
	preloadRMAT(t, s, scale)
	seedKernels(t, s)

	var req wire.Request
	var frame, out []byte
	reads := []wire.Request{{Op: wire.OpComponent}, {Op: wire.OpPageRank, HasV: true}, {Op: wire.OpTopDegree, K: 10}}
	rng := rand.New(rand.NewSource(11))
	var live [][2]int32
	var edits []dyngraph.Edit
	wait := time.NewTimer(time.Hour)
	bump := func(i int) {
		edits = churnEdits(rng, 1<<scale, perBump, &live, edits)
		target := s.Applied() + int64(len(edits))
		enqueueAll(t, s, edits)
		for s.Applied() < target {
			b := s.cur.Load()
			if s.Applied() >= target {
				break
			}
			wait.Reset(time.Millisecond)
			select {
			case <-b.next:
			case <-wait.C:
			}
			wait.Stop()
		}
		for _, q := range reads {
			q.V = int32(i) & (1<<scale - 1)
			frame = wire.AppendRequest(frame[:0], &q)
			if out = s.wireRespond(frame, &req, out[:0]); out[0] != wire.StatusOK {
				t.Fatalf("bump %d: %s answered %d", i, wire.OpName(q.Op), out[0])
			}
		}
	}
	waits := func() (n int64) {
		for _, op := range []string{"component", "pagerank", "topdegree"} {
			for _, stage := range []string{"snapshot", "kernel"} {
				n += cfg.Registry.Histogram("server_stage_seconds", telemetry.L("endpoint", op), telemetry.L("stage", stage)).Snapshot().Count
			}
		}
		return n
	}
	yard := gen.RMAT(scale, 8, gen.Graph500RMAT, scale, false)
	cpu := func() float64 { // the process's CPU seconds (unix): waits for a core do not count
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	for i := 0; i < 1000; i++ { // warm-up: the churn FIFO fills, arenas and pools reach their size
		bump(i)
	}
	heap0, waits0 := heapInuse(), waits()
	var bytes, secs []float64
	var ms runtime.MemStats
	for w := 0; w < bumps/window; w++ {
		var alloc uint64
		var spent, yardsticks float64
		for i := 0; i < window; i += 10 {
			runtime.ReadMemStats(&ms)
			alloc0, t0 := ms.TotalAlloc, cpu()
			for j := i; j < i+10; j++ {
				bump(w*window + j)
			}
			spent += cpu() - t0
			runtime.ReadMemStats(&ms)
			alloc += ms.TotalAlloc - alloc0
			t0 = cpu()
			kernels.PageRank(yard, kernels.DefaultPageRankOptions())
			yardsticks += cpu() - t0
		}
		bytes = append(bytes, float64(alloc)/window)
		secs = append(secs, spent/yardsticks/10)
	}
	heap1 := heapInuse()
	t.Logf("per bump: %.1f KiB and %.4f yardsticks over the first %d, %.1f KiB and %.4f over the last; heap in use %d -> %d KiB",
		bytes[0]/1024, secs[0], window, bytes[len(bytes)-1]/1024, secs[len(secs)-1], heap0>>10, heap1>>10)
	for w, b := range bytes {
		if b > budget {
			t.Errorf("bumps %d-%d allocate %.1f KiB per bump, budget %d KiB", w*window, (w+1)*window, b/1024, budget>>10)
		}
	}
	t.Logf("yardsticks per bump by window: %.4g", secs)
	flat := func(what string, xs []float64) {
		if first, last := xs[0], xs[len(xs)-1]; last > 1.1*first || last < 0.9*first {
			t.Errorf("%s per bump drifted: %.4g over the first %d bumps, %.4g over the last", what, first, window, last)
		}
	}
	flat("bytes", bytes)
	flat("time", secs)
	if heap1 > heap0+heap0/2+(4<<20) {
		t.Errorf("heap in use grew from %d to %d KiB over %d bumps", heap0>>10, heap1>>10, bumps)
	}
	if n := waits() - waits0; n != 0 {
		t.Errorf("%d reads waited on a build while reads kept up", n)
	}
}
