package main

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// oracleTarget answers every query from the sequential kernels on the
// inputs' own graph, except that it lies about one vertex's component.
type oracleTarget struct {
	in      *inputs
	cc      *kernels.CCResult
	sizes   []int64
	rank    []float64
	lieFor  int32
	refuse  bool // every ingest is pushed back with nothing accepted
	ingests int
}

func newOracleTarget(in *inputs) *oracleTarget {
	t := &oracleTarget{in: in, cc: kernels.WCC(in.g), lieFor: -1}
	t.sizes = make([]int64, in.n)
	for _, l := range t.cc.Label {
		t.sizes[l]++
	}
	t.rank, _ = kernels.PageRank(in.g, kernels.DefaultPageRankOptions())
	return t
}

func (t *oracleTarget) component(_ int, v int32) (*wire.ComponentResult, error) {
	l := t.cc.Label[v]
	res := &wire.ComponentResult{V: v, Component: l, Size: t.sizes[l], NumComponents: t.cc.NumComponents}
	if v == t.lieFor {
		res.Size++
	}
	return res, nil
}
func (t *oracleTarget) pagerank(_ int, v int32) (*wire.PageRankResult, error) {
	return &wire.PageRankResult{V: &v, Rank: &t.rank[v]}, nil
}
func (t *oracleTarget) topdegree(_ int, k int32) (*wire.TopDegreeResult, error) {
	res := &wire.TopDegreeResult{K: int(k)}
	for _, sv := range kernels.TopKByDegree(t.in.g, int(k)) {
		res.Results = append(res.Results, wire.ScoredVertex{V: sv.V, Score: sv.Score})
	}
	return res, nil
}
func (t *oracleTarget) khop(_ int, v int32, k int32) (*wire.KHopResult, error) {
	vs := kernels.KHopNeighborhood(t.in.g, []int32{v}, k)
	return &wire.KHopResult{Seeds: []int32{v}, K: k, Count: len(vs), Vertices: vs}, nil
}
func (t *oracleTarget) jaccard(_ int, u int32) (*wire.JaccardResult, error) {
	res := &wire.JaccardResult{U: u}
	for _, p := range kernels.JaccardFromVertex(t.in.g, u, 0) {
		res.Results = append(res.Results, wire.JaccardPair{V: p.V, Score: p.Score, Inter: p.Inter})
	}
	return res, nil
}
func (t *oracleTarget) ingest(_ int, edits []edit) (int, error) {
	t.ingests++
	if t.refuse {
		return 0, errStatus
	}
	return len(edits), nil
}
func (t *oracleTarget) ping(int) error { return nil }
func (t *oracleTarget) close()         {}

func smokeRun(t *testing.T, spec serveSpec) (*serveRun, *oracleTarget, driver) {
	t.Helper()
	cfg := &runConfig{seed: 3, sz: sizes["smoke"], conns: 1}
	in, err := makeInputs(cfg.sz, cfg.sz.scale, cfg.seed, spec.batchEdits)
	if err != nil {
		t.Fatal(err)
	}
	tgt := newOracleTarget(in)
	return newServeRun(cfg, spec, in, newOracle(in.g, in.travs), tgt), tgt, driver{clk: wallClock{}, conns: 1}
}

func TestRightAnswersPass(t *testing.T) {
	run, _, d := smokeRun(t, specServeRead)
	p := d.count(0, 500, run.do)
	if p.failed != 0 {
		t.Fatalf("%d of %d ops failed against a target that answers from the oracle's own kernels", p.failed, p.attempted)
	}
	if code := exitCode(&result{attempted: p.attempted, failed: p.failed}); code != 0 {
		t.Errorf("exit code %d for a clean run, want 0", code)
	}
}

func TestWrongAnswerIsAFailedOpAndANonZeroExit(t *testing.T) {
	run, tgt, d := smokeRun(t, specServeRead)
	// Find the first op that asks for a component and make the target lie
	// about exactly that vertex.
	for i := 0; ; i++ {
		if run.mix.kind(i) == opComponent {
			tgt.lieFor = pick(run.in.lookups, i)
			break
		}
	}
	p := d.count(0, 500, run.do)
	if p.failed == 0 {
		t.Fatal("a component answer with the wrong size passed verification")
	}
	if code := exitCode(&result{attempted: p.attempted, failed: p.failed}); code == 0 {
		t.Error("exit code 0 with failed ops, want non-zero")
	}
}

func TestRefusedIngestIsAFailedOp(t *testing.T) {
	run, tgt, d := smokeRun(t, specServeChurn)
	run.or = nil
	tgt.refuse = true
	p := d.count(0, 400, run.do)
	if tgt.ingests == 0 {
		t.Fatal("the churn schedule sent no ingest in 400 ops")
	}
	if p.failed != tgt.ingests {
		t.Errorf("%d failed ops, want %d: every refused ingest and nothing else", p.failed, tgt.ingests)
	}
	if got := run.acceptedEdits(); got != 0 {
		t.Errorf("%d edits logged as accepted, want 0", got)
	}
}

func TestScheduleHoldsExactShares(t *testing.T) {
	for _, spec := range []serveSpec{specServeRead, specServeChurn, specClusterMixed} {
		m := newMix(11, spec.shares)
		total := 0
		for _, n := range spec.shares {
			total += n
		}
		if len(m.cycle) != total {
			t.Fatalf("%s: cycle of %d ops, want %d", spec.name, len(m.cycle), total)
		}
		got := map[opKind]int{}
		for i := 0; i < 3*total; i++ {
			got[m.kind(i)]++
		}
		for k, n := range spec.shares {
			if got[k] != 3*n {
				t.Errorf("%s: %d %s ops in three cycles, want %d", spec.name, got[k], opNames[k], 3*n)
			}
		}
	}
}

func TestReplayIsOrderIndependent(t *testing.T) {
	sz := sizes["smoke"]
	in, err := makeInputs(sz, sz.scale, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	var fwd, rev []acceptRec
	for b := 0; b < 60; b++ {
		fwd = append(fwd, acceptRec{b, 100})
		rev = append([]acceptRec{{b, 100}}, rev...)
	}
	a, err := in.replay(fwd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.replay(rev)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() || a.NumEdges() == in.g.NumEdges() {
		t.Fatalf("replay gives %d and %d arcs from %d; want equal and changed", a.NumEdges(), b.NumEdges(), in.g.NumEdges())
	}
	deletes := 0
	seen := map[uint64]int{}
	for _, batch := range in.edits {
		for _, e := range batch {
			seen[edgeKey(e.Src, e.Dst)]++
			if e.Delete {
				deletes++
			}
		}
	}
	for k, n := range seen {
		if n > 2 {
			t.Fatalf("edge %x appears %d times in the stream, want at most an insert and its delete", k, n)
		}
	}
	if total := len(in.edits) * 100; deletes < total/5 || deletes > total*3/10 {
		t.Errorf("%d deletes in %d edits, want about a quarter", deletes, total)
	}
}
