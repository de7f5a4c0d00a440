package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/wire"
	"repro/internal/wire/snapfmt"
)

// The per-layer metrics. This PR may not instrument the program, so the
// traced run replays the workload's generated inputs straight into each
// layer's public functions and times those calls from here, one span per
// call under one root span per layer. The functions called are the
// compatibility surface README.md lists.

// probeTrace numbers the probe traces well clear of the op traces.
const probeTrace = int64(1) << 40

// probe times one call into a layer as a span and returns its duration.
func probe(layer spanRef, name string, f func()) time.Duration {
	sp := layer.child(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.end()
	return d
}

// medianOf runs f n times under one span each and returns the median time.
func medianOf(layer spanRef, name string, n int, f func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(probe(layer, name, func() { f(i) }))
	}
	return time.Duration(median(ds))
}

func allocDelta(f func()) (bytes, mallocs uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// probeLibraries measures the in-process layers — gen, graph, wire codecs,
// snapfmt, dyngraph, incr, kernels, matrix, par — on the workload's graph.
func probeLibraries(cfg *runConfig, in *inputs, out map[string]float64) error {
	tr := cfg.tracer
	sz := cfg.sz
	ctx := context.Background()
	workers := cfg.conns
	par.SetDefaultWorkers(workers)
	trace := probeTrace

	// gen, graph: the repo's builder over a fixed-size prefix of the stream.
	layer := tr.start(trace, 0, "layer.graph")
	prefix := in.edges[:min(len(in.edges), sz.probeEdges)]
	out["graph.build_ms"] = ms(probe(layer, "graph.FromEdges", func() { graph.FromEdges(in.n, false, prefix) }))
	layer.end()
	out["gen.rmat_ms"] = ms(in.genRMAT)

	// wire: request encode, response decode, and the size of a khop answer.
	trace++
	layer = tr.start(trace, 0, "layer.wire")
	khopAns := kernels.KHopNeighborhood(in.g, []int32{in.travs[0]}, khopDepth)
	resp := wire.AppendKHopResult(nil, &wire.KHopResult{Seeds: []int32{in.travs[0]}, K: khopDepth, Count: len(khopAns), Vertices: khopAns})
	out["wire.khop_resp_bytes"] = float64(len(resp))
	const codecReps = 20000
	var buf []byte
	req := wire.Request{Op: wire.OpComponent, TimeoutMicros: 2_000_000, V: in.lookups[0]}
	d := probe(layer, "wire.AppendRequest", func() {
		for i := 0; i < codecReps; i++ {
			buf = wire.AppendRequest(buf[:0], &req)
		}
	})
	out["wire.encode_req_ns"] = float64(d) / codecReps
	compResp := wire.AppendComponentResult(nil, &wire.ComponentResult{V: 1, Component: 0, Size: 40000, NumComponents: 18000, Version: 7})
	var comp wire.ComponentResult
	var derr error
	d = probe(layer, "wire.DecodeComponentResult", func() {
		for i := 0; i < codecReps; i++ {
			r := wire.NewReader(compResp)
			if err := wire.DecodeComponentResult(&r, &comp); err != nil {
				derr = err
			}
		}
	})
	if derr != nil {
		return fmt.Errorf("wire decode probe: %w", derr)
	}
	out["wire.decode_resp_ns"] = float64(d) / codecReps
	layer.end()

	// wire/snapfmt: the snapshot graphd recovers from, written and read back.
	trace++
	layer = tr.start(trace, 0, "layer.snapfmt")
	snapG, err := weightedCopy(in)
	if err != nil {
		return err
	}
	var file bytes.Buffer
	var werr error
	out["snapfmt.write_ms"] = ms(probe(layer, "snapfmt.Write", func() { werr = snapfmt.Write(&file, snapG) }))
	if werr != nil {
		return fmt.Errorf("snapfmt probe: %w", werr)
	}
	out["snapfmt.bytes_per_arc"] = float64(file.Len()) / float64(snapG.NumEdges())
	var back *graph.Graph
	var rerr error
	allocB, _ := allocDelta(func() {
		out["snapfmt.read_ms"] = ms(probe(layer, "snapfmt.Read", func() {
			back, rerr = snapfmt.Read(bytes.NewReader(file.Bytes()), int64(file.Len()))
		}))
	})
	if rerr != nil {
		return fmt.Errorf("snapfmt probe: %w", rerr)
	}
	out["snapfmt.read_alloc_mb"] = float64(allocB) / mib
	layer.end()

	// dyngraph: bulk load, apply, full and delta snapshot, one ingest batch at a time.
	trace++
	layer = tr.start(trace, 0, "layer.dyngraph")
	var dyn *dyngraph.DynGraph
	out["dyngraph.from_csr_ms"] = ms(probe(layer, "dyngraph.FromCSRGraph", func() { dyn = dyngraph.FromCSRGraph(back) }))
	var full *graph.Graph
	out["dyngraph.snapshot_ms"] = ms(probe(layer, "dyngraph.Snapshot", func() { full = dyn.Snapshot() }))
	layer.end()

	// incr seeds from the full kernels, as graphd's first query after recovery does.
	trace++
	kl := tr.start(trace, 0, "layer.kernels")
	var cc *kernels.CCResult
	wccT := medianOf(kl, "kernels.WCCParallel", 3, func(int) { cc = kernels.WCCParallel(full) })
	out["kernels.wcc_ms"] = ms(wccT)
	var rank []float64
	var iters int
	prT := medianOf(kl, "kernels.PageRank", 3, func(int) { rank, iters = kernels.PageRank(full, kernels.DefaultPageRankOptions()) })
	out["kernels.pagerank_ms"] = ms(prT)
	out["kernels.pagerank_iters"] = float64(iters)

	trace++
	il := tr.start(trace, 0, "layer.incr")
	dl := tr.start(trace, 0, "layer.dyngraph.churn")
	wccSt := incr.SeedWCC(cc, 0)
	degSt := incr.SeedDegrees(full, 0)
	prSt := incr.SeedPR(rank, full, kernels.DefaultPageRankOptions(), 0)
	// Eight batches of 50 edits whatever the workload's own batch size, so
	// the numbers compare across workloads.
	const churnBatches, churnEdits = 8, 50
	var applyT, deltaT, wccAdv, degAdv, prAdv, rows, sweeps []float64
	prev := full
	batches := genEdits(in.g, in.scale, churnBatches, churnEdits, in.seed+2)
	for b := 0; b < churnBatches; b++ {
		edits := make([]dyngraph.Edit, len(batches[b]))
		for i, e := range batches[b] {
			edits[i] = dyngraph.Edit{Src: e.Src, Dst: e.Dst, Delete: e.Delete}
		}
		var res dyngraph.BatchResult
		applyT = append(applyT, float64(probe(dl, "dyngraph.ApplyEdits", func() { res = dyn.ApplyEdits(edits) })))
		batch := []incr.Batch{{Version: int64(b + 1), Edits: edits, HadDeletes: res.Deleted > 0}}
		touched := incr.TouchedVertices(batch, in.n)
		rows = append(rows, float64(len(touched)))
		var next *graph.Graph
		deltaT = append(deltaT, float64(probe(dl, "dyngraph.SnapshotDelta", func() { next = dyn.SnapshotDelta(prev, touched) })))
		var aerr error
		wccAdv = append(wccAdv, float64(probe(il, "incr.WCCState.Advance", func() { _, aerr = wccSt.Advance(ctx, next, int64(b+1), batch) })))
		if aerr != nil {
			return fmt.Errorf("incr probe: %w", aerr)
		}
		degAdv = append(degAdv, float64(probe(il, "incr.DegreeState.Advance", func() { _, aerr = degSt.Advance(ctx, next, int64(b+1), batch) })))
		if aerr != nil {
			return fmt.Errorf("incr probe: %w", aerr)
		}
		var n int
		prAdv = append(prAdv, float64(probe(il, "incr.PRState.Advance", func() { _, n, aerr = prSt.Advance(ctx, next, int64(b+1), batch) })))
		if aerr != nil {
			return fmt.Errorf("incr probe: %w", aerr)
		}
		sweeps = append(sweeps, float64(n))
		prev = next
	}
	il.end()
	dl.end()
	out["dyngraph.apply_us_per_edit"] = median(applyT) / 1e3 / churnEdits
	out["dyngraph.snapshot_delta_ms"] = median(deltaT) / 1e6
	out["dyngraph.delta_rows_per_batch"] = median(rows)
	out["incr.wcc_advance_us"] = median(wccAdv) / 1e3
	out["incr.deg_advance_us"] = median(degAdv) / 1e3
	out["incr.pr_advance_ms"] = median(prAdv) / 1e6
	out["incr.pr_sweeps_per_batch"] = median(sweeps)
	out["incr.pr_vs_full_ratio"] = median(prAdv) / float64(prT)

	// kernels: the point queries graphd serves, over the traversal set.
	g := in.g
	var khopT, jacT []float64
	for _, v := range in.travs[:min(len(in.travs), 256)] {
		khopT = append(khopT, us(probe(kl, "kernels.KHopNeighborhood", func() { kernels.KHopNeighborhood(g, []int32{v}, khopDepth) })))
		jacT = append(jacT, us(probe(kl, "kernels.JaccardFromVertex", func() { kernels.JaccardFromVertex(g, v, 0) })))
	}
	out["kernels.khop2_us_p50"] = percentile(khopT, 0.5)
	out["kernels.khop2_us_p99"] = percentile(khopT, 0.99)
	out["kernels.jaccard_vertex_us_p50"] = percentile(jacT, 0.5)
	out["kernels.jaccard_vertex_us_p99"] = percentile(jacT, 0.99)
	out["kernels.topk_degree_us"] = us(medianOf(kl, "kernels.TopKByDegree", 5, func(int) { kernels.TopKByDegree(g, topK) }))

	// kernels, matrix: the batch trial classes, a few trials each.
	src := in.travs[0]
	var reached int64
	bfsT := medianOf(kl, "kernels.BFSParallel", 8, func(i int) { reached = kernels.BFSParallel(g, in.travs[i]).Visited })
	_ = reached
	out["kernels.bfs_ms"] = ms(bfsT)
	out["kernels.bfs_mteps"] = float64(g.NumEdges()) / 2 / bfsT.Seconds() / 1e6
	gw, err := withWeights(g, in.seed)
	if err != nil {
		return err
	}
	out["kernels.sssp_ms"] = ms(medianOf(kl, "kernels.DeltaSteppingParallel", 3, func(int) { kernels.DeltaSteppingParallel(gw, src, ssspDelta) }))
	var kcoreT time.Duration
	_, mallocs := allocDelta(func() {
		kcoreT = probe(kl, "kernels.KCoreParallel", func() { kernels.KCoreParallel(g) })
	})
	out["kernels.kcore_ms"] = ms(kcoreT)
	out["kernels.kcore_allocs"] = float64(mallocs)
	triT := medianOf(kl, "kernels.GlobalTriangleCount", 2, func(int) { kernels.GlobalTriangleCount(g) })
	out["kernels.triangles_ms"] = ms(triT)
	smallEdges := gen.RMATEdgeStream(sz.smallScale, sz.smallEF<<sz.smallScale, gen.Graph500RMAT, in.seed+1)
	small, err := buildCSR(1<<sz.smallScale, smallEdges)
	if err != nil {
		return err
	}
	out["kernels.jaccard_topk_ms"] = ms(probe(kl, "kernels.JaccardAllParallel", func() {
		kernels.JaccardAllParallel(small, jacMinShared, jacThreshold, jacTopK)
	}))
	kl.end()

	trace++
	ml := tr.start(trace, 0, "layer.matrix")
	a := matrix.AdjacencyMatrix(small)
	var spT time.Duration
	spAlloc, _ := allocDelta(func() {
		spT = probe(ml, "matrix.SpGEMMParallel", func() { matrix.SpGEMMParallel(matrix.PlusTimes, a, a) })
	})
	out["matrix.spgemm_ms"] = ms(spT)
	out["matrix.spgemm_alloc_mb"] = float64(spAlloc) / mib
	ml.end()

	// par: the same kernels at one worker; the ratio is the speed-up.
	trace++
	pl := tr.start(trace, 0, "layer.par")
	par.SetDefaultWorkers(1)
	pr1 := medianOf(pl, "kernels.PageRank@1", 2, func(int) { kernels.PageRank(g, kernels.DefaultPageRankOptions()) })
	bfs1 := medianOf(pl, "kernels.BFSParallel@1", 8, func(i int) { kernels.BFSParallel(g, in.travs[i]) })
	tri1 := probe(pl, "kernels.GlobalTriangleCount@1", func() { kernels.GlobalTriangleCount(g) })
	par.SetDefaultWorkers(workers)
	prN := medianOf(pl, "kernels.PageRank@n", 2, func(int) { kernels.PageRank(g, kernels.DefaultPageRankOptions()) })
	pl.end()
	out["par.speedup_pagerank"] = float64(pr1) / float64(prN)
	out["par.speedup_bfs"] = float64(bfs1) / float64(bfsT)
	out["par.speedup_triangles"] = float64(tri1) / float64(triT)
	return nil
}

// weightedCopy is in.g with the unit weights and zero timestamps graphd's
// own snapshots carry (see writeSnapshot).
func weightedCopy(in *inputs) (*graph.Graph, error) {
	offsets, targets, _, _ := in.g.CSR()
	weights := make([]float32, len(targets))
	for i := range weights {
		weights[i] = 1
	}
	return graph.FromCSRArrays(in.n, false, slices.Clone(offsets), slices.Clone(targets), weights, make([]int64, len(targets)))
}

// timeOps runs n calls of f one after another, a span each, and returns the
// median call time in microseconds. The first error ends the probe.
func timeOps(layer spanRef, name string, n int, f func(i int) error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var err error
		d := probe(layer, name, func() { err = f(i) })
		if err != nil {
			return 0, fmt.Errorf("%s probe: %w", name, err)
		}
		xs = append(xs, us(d))
	}
	return median(xs), nil
}

const (
	pointProbes = 300 // calls per cached-lookup probe
	travProbes  = 200 // calls per khop/jaccard probe
)

// probeServer measures one graphd from outside: it boots its own from the
// workload's snapshot, times each op type with a single sequential client,
// then ingest, visibility and a burst, and ends with a SIGTERM persist.
func probeServer(cfg *runConfig, in *inputs, out map[string]float64) error {
	layer := cfg.tracer.start(probeTrace+100, 0, "layer.server")
	defer layer.end()
	snap := filepath.Join(cfg.sb.dir, "probe.snap")
	if err := writeSnapshot(snap, in); err != nil {
		return err
	}
	boot := layer.child("graphd.recover")
	p, err := cfg.sb.startGraphd(in.n, snap, 0, 0)
	if err != nil {
		return err
	}
	if err := p.waitReady(); err != nil {
		return err
	}
	boot.end()
	out["server.recover_ms"] = ms(time.Since(p.started))

	wt, err := dialWire(p.wireAddr, 1)
	if err != nil {
		return err
	}
	defer wt.close()
	ht := newHTTPTarget(p.httpAddr, 1)
	defer ht.close()

	wl := cfg.tracer.start(probeTrace+101, 0, "layer.wire.rtt")
	ping, err := timeOps(wl, "wire.Client.Ping", pointProbes, func(int) error { return wt.ping(0) })
	wl.end()
	if err != nil {
		return err
	}
	out["wire.ping_rtt_us"] = ping
	if out["server.http_ping_us"], err = timeOps(layer, "GET /healthz", pointProbes, func(int) error { return ht.ping(0) }); err != nil {
		return err
	}
	// One untimed call of each cached kind builds the per-version caches.
	if _, err := wt.component(0, in.lookups[0]); err != nil {
		return err
	}
	if _, err := wt.pagerank(0, in.lookups[0]); err != nil {
		return err
	}
	if _, err := wt.topdegree(0, topK); err != nil {
		return err
	}
	ops := []struct {
		metric string
		n      int
		call   func(i int) error
	}{
		{"server.component_p50_us", pointProbes, func(i int) error { _, err := wt.component(0, pick(in.lookups, i)); return err }},
		{"server.pagerank_p50_us", pointProbes, func(i int) error { _, err := wt.pagerank(0, pick(in.lookups, i)); return err }},
		{"server.topdegree_p50_us", pointProbes, func(int) error { _, err := wt.topdegree(0, topK); return err }},
		{"server.khop2_p50_us", travProbes, func(i int) error { _, err := wt.khop(0, pick(in.travs, i), khopDepth); return err }},
		{"server.jaccard_p50_us", travProbes, func(i int) error { _, err := wt.jaccard(0, pick(in.travs, i)); return err }},
	}
	for _, op := range ops {
		if out[op.metric], err = timeOps(layer, op.metric, op.n, op.call); err != nil {
			return err
		}
	}
	out["server.shell_us"] = out["server.component_p50_us"] - ping

	// Ingest: one 50-edit batch at a time, each waited for until /stats shows
	// it applied; then a burst as fast as one connection can push it.
	// stream[0] feeds the twenty 50-edit batches, the rest the burst.
	const probeBatches, probeEdits, burstBatch = 20, 50, 1000
	burstBatches := cfg.sz.burstEdits / burstBatch
	stream := genEdits(in.g, in.scale, 1+burstBatches, burstBatch, in.seed+3)
	var sent int64
	var ackT, visT []float64
	for b := 0; b < probeBatches; b++ {
		batch := stream[0][b*probeEdits : (b+1)*probeEdits]
		d := probe(layer, "POST /ingest", func() { _, err = ht.ingest(0, batch) })
		if err != nil {
			return fmt.Errorf("ingest probe: %w", err)
		}
		sent += probeEdits
		ackT = append(ackT, us(d)/probeEdits)
		vis := probe(layer, "ingest.visibility", func() { err = waitApplied(p, sent) })
		if err != nil {
			return err
		}
		visT = append(visT, ms(vis))
	}
	out["server.ingest_us_per_edit"] = median(ackT)
	out["server.visibility_ms"] = median(visT)

	var rejected, offered int
	burst := layer.child("ingest.burst")
	t0 := time.Now()
	for _, batch := range stream[1 : 1+burstBatches] {
		for rest := batch; len(rest) > 0; {
			offered += len(rest)
			n, err := ht.ingest(0, rest)
			if err != nil && !errors.Is(err, errStatus) {
				return fmt.Errorf("ingest burst: %w", err)
			}
			rejected += len(rest) - n
			rest = rest[n:]
			if len(rest) > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	sent += int64(burstBatches * burstBatch)
	if err := waitApplied(p, sent); err != nil {
		return err
	}
	burst.end()
	out["server.ingest_keps"] = float64(burstBatches*burstBatch) / time.Since(t0).Seconds() / 1000
	out["server.ingest_reject_frac"] = float64(rejected) / float64(offered)

	if out["server.rss_peak_mb"], err = p.rssPeakMB(); err != nil {
		return err
	}
	mem, err := p.memStats()
	if err != nil {
		return err
	}
	out["server.gc_pause_ms_per_s"] = float64(mem.PauseTotalNs) / 1e6 / time.Since(p.started).Seconds()
	persist := layer.child("graphd.persist")
	d, err := p.term()
	persist.end()
	if err != nil {
		return err
	}
	out["server.persist_ms"] = ms(d)
	return nil
}

// waitApplied polls one graphd's /stats until it has applied want edits.
func waitApplied(p *proc, want int64) error { return quiesce([]*proc{p}, want) }

// counters reads counter families from a child's /metrics.json, each summed
// over its label sets. A family the program no longer exports reads as 0.
func counters(p *proc, names ...string) (map[string]float64, error) {
	resp, err := httpc.Get("http://" + p.httpAddr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sums := map[string]float64{}
	dec := json.NewDecoder(resp.Body)
	for {
		var m struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		}
		if err := dec.Decode(&m); err == io.EOF {
			return sums, nil
		} else if err != nil {
			return nil, err
		}
		if m.Value != nil && slices.Contains(names, m.Name) {
			sums[m.Name] += *m.Value
		}
	}
}

// probeCluster measures graphctl over two shards from outside: bulk ingest
// through the coordinator, the first BSP gathers, a cached lookup through
// the coordinator against the same lookup sent straight to a shard, the
// scatter-gather traversals, and gathers raced against ingest for the skew
// retry rate.
func probeCluster(cfg *runConfig, in *inputs, out map[string]float64) error {
	layer := cfg.tracer.start(probeTrace+200, 0, "layer.cluster")
	defer layer.end()
	prefix := *in
	prefix.edges = in.edges[:min(len(in.edges), cfg.sz.probeEdges)]
	var dep *deployment
	var err error
	d := probe(layer, "cluster.boot+ingest", func() { dep, err = boot(cfg, specClusterMixed, &prefix, "") })
	if err != nil {
		return err
	}
	defer dep.close()
	out["cluster.ingest_us_per_edit"] = us(d) / float64(len(prefix.edges))
	ctl := dep.servers[len(dep.servers)-1]
	t := dep.tgt
	direct := newHTTPTarget(dep.data[0].httpAddr, 1)
	defer direct.close()

	out["cluster.bsp_wcc_ms"] = ms(probe(layer, "cluster.first component", func() { _, err = t.component(0, in.lookups[0]) }))
	if err != nil {
		return err
	}
	out["cluster.bsp_pagerank_ms"] = ms(probe(layer, "cluster.first pagerank", func() { _, err = t.pagerank(0, in.lookups[0]) }))
	if err != nil {
		return err
	}
	if _, err := direct.component(0, in.lookups[0]); err != nil {
		return err
	}
	ops := []struct {
		metric string
		n      int
		call   func(i int) error
	}{
		{"cluster.point_p50_us", pointProbes, func(i int) error { _, err := t.component(0, pick(in.lookups, i)); return err }},
		{"cluster.direct_p50_us", pointProbes, func(i int) error { _, err := direct.component(0, pick(in.lookups, i)); return err }},
		{"cluster.khop2_p50_us", travProbes, func(i int) error { _, err := t.khop(0, pick(in.travs, i), khopDepth); return err }},
		{"cluster.jaccard_p50_us", travProbes, func(i int) error { _, err := t.jaccard(0, pick(in.travs, i)); return err }},
	}
	for _, op := range ops {
		if out[op.metric], err = timeOps(layer, op.metric, op.n, op.call); err != nil {
			return err
		}
	}
	out["cluster.hop_overhead_us"] = out["cluster.point_p50_us"] - out["cluster.direct_p50_us"]

	// A gather that starts right after an ingest ack races the shards'
	// flush: its retries, and the 503s when the retry loses too, are the
	// reason cluster-mixed does not write. Failures here are data, not errors.
	const races = 10
	stream := genEdits(in.g, in.scale, races, 50, in.seed+4)
	const retries, rebuilds = "cluster_skew_retries_total", "cluster_kernel_rebuilds_total"
	before, err := counters(ctl, retries, rebuilds)
	if err != nil {
		return err
	}
	race := layer.child("cluster.gather vs ingest")
	for _, batch := range stream {
		if _, err := t.ingest(0, batch); err != nil {
			return fmt.Errorf("cluster ingest probe: %w", err)
		}
		_, _ = t.pagerank(0, in.lookups[0]) // a 503 is the thing being counted
	}
	race.end()
	after, err := counters(ctl, retries, rebuilds)
	if err != nil {
		return err
	}
	retried := after[retries] - before[retries]
	out["cluster.skew_retry_frac"] = 0
	if gathers := after[rebuilds] - before[rebuilds] + retried; gathers > 0 {
		out["cluster.skew_retry_frac"] = retried / gathers
	}
	return nil
}

// probeLayers fills out with every per-layer metric the workload's own
// phases did not already provide.
func probeLayers(cfg *runConfig, in *inputs, out map[string]float64) error {
	if err := probeLibraries(cfg, in, out); err != nil {
		return err
	}
	if err := probeServer(cfg, in, out); err != nil {
		return err
	}
	return probeCluster(cfg, in, out)
}
