package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/wire/snapfmt"
)

// opKind is one request type of the serving workloads.
type opKind int

const (
	opComponent opKind = iota
	opPageRank
	opTopDegree
	opKHop
	opJaccard
	opIngest
	numOpKinds
)

var opNames = [numOpKinds]string{"component", "pagerank", "topdegree", "khop", "jaccard", "ingest"}

// serveSpec is one serving workload: what is deployed, how clients talk to
// it, the op mix as shares of one schedule cycle, and the open-loop rate.
type serveSpec struct {
	name    string
	cluster bool // graphctl + 2 graphd shards, else one graphd
	wire    bool // binary wire protocol, else HTTP/JSON
	shares  map[opKind]int
	// openRate is a committed constant at about 30% of the closed-loop
	// capacity measured on the reference box (README, "Calibration").
	openRate float64
	// batchEdits is the size of one ingest op.
	batchEdits int
}

// measuredRounds is how many closed+open rounds the measured time is cut
// into; the open loops together must time minTimedOps ops.
const measuredRounds = 5

var (
	specServeRead = serveSpec{
		name: wlServeRead, wire: true, openRate: 600,
		shares: map[opKind]int{opComponent: 20, opPageRank: 20, opTopDegree: 20, opKHop: 20, opJaccard: 20},
	}
	// Shares in half percents: 0.5% ingest of 200 edits, 2% pagerank. Every
	// version bump stalls reads for tens of milliseconds, so a larger write
	// share puts most ops behind a stall, the median with them, and the
	// run-to-run spread at 20-30%; and two ingests per cycle arrive, in the
	// closed loop, about one 25ms flush interval apart, where graphd merges
	// them into one bump or not depending on the box's speed that minute
	// (README, "Calibration").
	specServeChurn = serveSpec{
		name: wlServeChurn, openRate: 750, batchEdits: 200,
		shares: map[opKind]int{opIngest: 1, opComponent: 97, opTopDegree: 98, opPageRank: 4},
	}
	// Reads only: at the parent commit a BSP gather that sees a shard's
	// version move twice answers 503, so with ingest beside the reads some
	// pagerank ops fail in every run (README, "Why cluster-mixed does not
	// write"). The writes are the bulk load in set-up.
	specClusterMixed = serveSpec{
		name: wlClusterMixed, cluster: true, openRate: 450,
		shares: map[opKind]int{opKHop: 15, opJaccard: 5, opComponent: 30, opTopDegree: 30, opPageRank: 20},
	}
)

func runServeRead(cfg *runConfig) (*result, error)    { return runServe(cfg, specServeRead) }
func runServeChurn(cfg *runConfig) (*result, error)   { return runServe(cfg, specServeChurn) }
func runClusterMixed(cfg *runConfig) (*result, error) { return runServe(cfg, specClusterMixed) }

func (s serveSpec) mutates() bool { return s.batchEdits > 0 }

// deployment is the system under test as launched for one boot. The
// sandbox owns the processes; the lists here say which to measure.
type deployment struct {
	sb      *sandbox
	servers []*proc // every server-side process: CPU and allocation accounting
	data    []*proc // the graphd processes that apply edits: quiesce polls these
	tgt     target
}

// close ends the deployment and whatever else the sandbox still runs; there
// is never more than one deployment alive.
func (d *deployment) close() {
	if d.tgt != nil {
		d.tgt.close()
	}
	d.sb.killAll()
}

const clusterShards = 2

// boot launches the spec's deployment on the generated inputs: a single
// graphd recovers from the flat snapshot, a cluster starts empty and is
// bulk-loaded through the coordinator's /ingest.
func boot(cfg *runConfig, spec serveSpec, in *inputs, snap string) (dep *deployment, err error) {
	dep = &deployment{sb: cfg.sb}
	defer func() {
		if err != nil {
			dep.close()
			dep = nil
		}
	}()
	if !spec.cluster {
		p, err := cfg.sb.startGraphd(in.n, snap, 0, 0)
		if err != nil {
			return dep, err
		}
		dep.servers, dep.data = []*proc{p}, []*proc{p}
		if err := p.waitReady(); err != nil {
			return dep, err
		}
		if !spec.wire {
			dep.tgt = newHTTPTarget(p.httpAddr, cfg.closedConns())
			return dep, nil
		}
		t, err := dialWire(p.wireAddr, cfg.closedConns())
		if err != nil {
			return dep, err
		}
		dep.tgt = t
		return dep, nil
	}
	for i := 0; i < clusterShards; i++ {
		p, err := cfg.sb.startGraphd(in.n, "", i, clusterShards)
		if err != nil {
			return dep, err
		}
		dep.servers = append(dep.servers, p)
		dep.data = append(dep.data, p)
	}
	for _, p := range dep.data {
		if err := p.waitReady(); err != nil {
			return dep, err
		}
	}
	ctl, err := cfg.sb.startGraphctl(in.n, dep.data)
	if err != nil {
		return dep, err
	}
	dep.servers = append(dep.servers, ctl)
	if err := ctl.waitReady(); err != nil {
		return dep, err
	}
	dep.tgt = newHTTPTarget(ctl.httpAddr, cfg.closedConns())
	if err := bulkIngest(dep.tgt, in.edges); err != nil {
		return dep, err
	}
	return dep, quiesce(dep.data, -1)
}

// bulkIngest loads an edge list through /ingest, retrying the rejected
// suffix of a chunk when the queue pushes back.
func bulkIngest(t target, edges [][2]int32) error {
	const chunk = 8192
	buf := make([]edit, 0, chunk)
	for lo := 0; lo < len(edges); lo += chunk {
		buf = buf[:0]
		for _, e := range edges[lo:min(lo+chunk, len(edges))] {
			buf = append(buf, edit{Src: e[0], Dst: e[1]})
		}
		for rest, tries := buf, 0; len(rest) > 0; tries++ {
			n, err := t.ingest(0, rest)
			if err != nil && !errors.Is(err, errStatus) {
				return fmt.Errorf("bulk ingest: %w", err)
			}
			rest = rest[n:]
			if len(rest) > 0 {
				if tries > 2000 {
					return fmt.Errorf("bulk ingest: queue stayed full: %v", err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// serverStats is the part of graphd's /stats the benchmark reads.
type serverStats struct {
	Applied    int64 `json:"applied"`
	QueueDepth int   `json:"queue_depth"`
}

// quiesce waits until the graphd processes have applied what they accepted.
// With want >= 0 (one graphd, and an edit stream built so that none is
// deduplicated) the test is exact: applied == want. A cluster routes each
// edit to one or two shards by a partition function the benchmark must not
// know, so want < 0 settles for empty queues and an applied total that held
// still for 100ms, four flush intervals.
func quiesce(data []*proc, want int64) error {
	deadline := time.Now().Add(60 * time.Second)
	last, still := int64(-1), 0
	for time.Now().Before(deadline) {
		var applied int64
		depth := 0
		for _, p := range data {
			var st serverStats
			if _, err := getJSON("http://"+p.httpAddr+"/stats", &st); err != nil {
				return err
			}
			applied += st.Applied
			depth += st.QueueDepth
		}
		switch {
		case want >= 0 && applied == want && depth == 0:
			return nil
		case want >= 0 && applied > want:
			return fmt.Errorf("graphd applied %d edits, only %d were accepted", applied, want)
		case want < 0 && depth == 0 && applied == last:
			if still++; still >= 5 {
				return nil
			}
		default:
			still = 0
		}
		last = applied
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("ingest did not quiesce within 60s")
}

// acceptRec is one ingest op's outcome: the first n edits of batch b entered
// the queue.
type acceptRec struct{ b, n int }

// serveRun drives one deployment.
type serveRun struct {
	cfg  *runConfig
	spec serveSpec
	in   *inputs
	mix  mix
	tgt  target
	tr   *tracer
	// or holds the answers of the graph being served. While edits are in
	// flight no exact answer is known and or is nil: ops are then checked
	// for status, echo and version order only, and a sample is re-checked
	// after the run (verifyAfter).
	or        *oracle
	nextBatch atomic.Int64
	lastVer   []int64       // per connection
	accepted  [][]acceptRec // per connection
	// service is each op's send-to-answer time in microseconds, by connection
	// and type: a diagnostic and the source of the server.*_p50_us metrics. It
	// leaves out the open loop's queueing, which op_p50_us includes.
	service  [][numOpKinds][]float64
	failLogs atomic.Int64
}

func newServeRun(cfg *runConfig, spec serveSpec, in *inputs, or *oracle, tgt target) *serveRun {
	return &serveRun{
		cfg: cfg, spec: spec, in: in, or: or, tgt: tgt,
		mix:      newMix(cfg.seed, spec.shares),
		lastVer:  make([]int64, cfg.closedConns()),
		accepted: make([][]acceptRec, cfg.closedConns()),
		service:  make([][numOpKinds][]float64, cfg.closedConns()),
	}
}

// serviceTimes merges the per-connection service times of one op type and
// forgets them.
func (r *serveRun) serviceTimes(kind opKind) []float64 {
	var out []float64
	for c := range r.service {
		out = append(out, r.service[c][kind]...)
		r.service[c][kind] = nil
	}
	return out
}

func (r *serveRun) printService(label string) {
	fmt.Printf("# %s service time by op type (count, p50 us, p99 us, max us):", label)
	for kind := opKind(0); kind < numOpKinds; kind++ {
		if xs := r.serviceTimes(kind); len(xs) > 0 {
			fmt.Printf("  %s %d %.0f %.0f %.0f", opNames[kind], len(xs), percentile(xs, 0.5), percentile(xs, 0.99), xs[len(xs)-1])
		}
	}
	fmt.Println()
}

// note reports the first few failed ops on stderr; the count is in the result.
func (r *serveRun) note(kind opKind, v int32, err error) bool {
	if r.failLogs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s op %s(%d) failed: %v\n", r.spec.name, opNames[kind], v, err)
	}
	return false
}

var errWrongAnswer = errors.New("answer differs from the oracle")

func (r *serveRun) versionOK(conn int, ver int64) bool {
	if ver < r.lastVer[conn] {
		return false
	}
	r.lastVer[conn] = ver
	return true
}

// exec sends one op and returns its check.
func (r *serveRun) exec(conn int, trace int64, kind opKind, v int32) func() bool {
	root := r.tr.start(trace, 0, "op."+opNames[kind])
	call := root.child("client." + opNames[kind])
	sent := time.Now()
	var err error
	var right func() bool // answer-specific part of the check
	switch kind {
	case opComponent:
		res, e := r.tgt.component(conn, v)
		err = e
		right = func() bool {
			return res.V == v && r.versionOK(conn, res.Version) && (r.or == nil || r.or.checkComponent(v, res))
		}
	case opPageRank:
		res, e := r.tgt.pagerank(conn, v)
		err = e
		right = func() bool {
			return res.V != nil && *res.V == v && res.Rank != nil && r.versionOK(conn, res.Version) &&
				(r.or == nil || r.or.checkPageRank(v, res))
		}
	case opTopDegree:
		res, e := r.tgt.topdegree(conn, topK)
		err = e
		right = func() bool { return len(res.Results) == topK && (r.or == nil || r.or.checkTopDegree(res)) }
	case opKHop:
		res, e := r.tgt.khop(conn, v, khopDepth)
		err = e
		right = func() bool {
			return res.Count == len(res.Vertices) && res.Count > 0 && (r.or == nil || r.or.checkKHop(v, res))
		}
	case opJaccard:
		res, e := r.tgt.jaccard(conn, v)
		err = e
		right = func() bool { return res.U == v && (r.or == nil || r.or.checkJaccard(v, res)) }
	case opIngest:
		b := int(r.nextBatch.Add(1)) - 1
		if b >= len(r.in.edits) {
			err = errors.New("pre-generated edit stream exhausted")
			break
		}
		n, e := r.tgt.ingest(conn, r.in.edits[b])
		err = e
		r.accepted[conn] = append(r.accepted[conn], acceptRec{b, n})
		right = func() bool { return n == len(r.in.edits[b]) }
	}
	r.service[conn][kind] = append(r.service[conn][kind], float64(time.Since(sent))/float64(time.Microsecond))
	call.end()
	return func() bool {
		defer root.end()
		if err != nil {
			return r.note(kind, v, err)
		}
		vs := root.child("verify")
		ok := right()
		vs.end()
		if !ok {
			return r.note(kind, v, errWrongAnswer)
		}
		return true
	}
}

// do is the opFunc of the timed phases: op i's type comes from the cyclic
// schedule and its vertex from the seed-derived sets.
func (r *serveRun) do(conn, i int) func() bool {
	kind := r.mix.kind(i)
	set := r.in.lookups
	if kind == opKHop || kind == opJaccard {
		set = r.in.travs
	}
	return r.exec(conn, int64(i)+1, kind, pick(set, i))
}

// firstOps completes set-up: every op type of the workload answered once and
// verified. A mutating workload ingests batch 0 first and waits for it, so
// the reads that follow pay the first post-write snapshot and kernel builds;
// r.or is then the oracle of the graph with batch 0 applied.
func (r *serveRun) firstOps(dep *deployment) error {
	for kind := opIngest; kind >= 0; kind-- {
		if r.spec.shares[kind] == 0 {
			continue
		}
		if !r.exec(0, -int64(kind)-1, kind, pick(r.in.travs, int(kind)))() {
			return fmt.Errorf("set-up: first %s op failed", opNames[kind])
		}
		if kind == opIngest {
			if err := r.quiesce(dep); err != nil {
				return err
			}
		}
	}
	if r.spec.mutates() {
		r.or = nil // edits are in flight from here on
	}
	for kind := opKind(0); kind < numOpKinds; kind++ {
		r.serviceTimes(kind) // the cold first calls are set-up, not service
	}
	return nil
}

func (r *serveRun) allAccepted() []acceptRec {
	var all []acceptRec
	for _, log := range r.accepted {
		all = append(all, log...)
	}
	return all
}

func (r *serveRun) acceptedEdits() int64 {
	var n int64
	for _, a := range r.allAccepted() {
		n += int64(a.n)
	}
	return n
}

func (r *serveRun) quiesce(dep *deployment) error {
	if r.spec.cluster {
		return quiesce(dep.data, -1)
	}
	return quiesce(dep.data, r.acceptedEdits())
}

// verifyAfter settles a mutating run: wait for the accepted edits to be
// applied, replay them into the benchmark's own copy of the graph, and
// check a sample of every read op type against the oracle of that graph.
func (r *serveRun) verifyAfter(dep *deployment, d driver, needTravs bool) (phase, error) {
	if err := r.quiesce(dep); err != nil {
		return phase{}, err
	}
	final, err := r.in.replay(r.allAccepted())
	if err != nil {
		return phase{}, err
	}
	sample := r.in.travs[:min(len(r.in.travs), r.cfg.sz.verifySample)]
	var travs []int32
	if needTravs {
		travs = sample
	}
	r.or = newOracle(final, travs)
	type probe struct {
		kind opKind
		v    int32
	}
	var probes []probe
	for kind := opKind(0); kind < opIngest; kind++ {
		if r.spec.shares[kind] == 0 {
			continue
		}
		if kind == opTopDegree {
			probes = append(probes, probe{kind, 0})
			continue
		}
		for _, v := range sample {
			probes = append(probes, probe{kind, v})
		}
	}
	return d.count(0, len(probes), func(conn, i int) func() bool {
		return r.exec(conn, -int64(numOpKinds)-int64(i)-1, probes[i].kind, probes[i].v)
	}), nil
}

// runServe is the common body of the three serving workloads.
func runServe(cfg *runConfig, spec serveSpec) (*result, error) {
	scale := cfg.sz.scale
	switch spec.name {
	case wlServeChurn:
		scale = cfg.sz.churnScale
	case wlClusterMixed:
		scale = cfg.sz.clusterScale
	}
	in, err := makeInputs(cfg.sz, scale, cfg.seed, spec.batchEdits)
	if err != nil {
		return nil, err
	}
	needTravs := spec.shares[opKHop] > 0 || spec.shares[opJaccard] > 0
	var travs []int32
	if needTravs {
		travs = in.travs
	}
	tOracle := time.Now()
	served := in.g
	if spec.mutates() {
		// Set-up ingests batch 0 before its first reads.
		if served, err = in.replay([]acceptRec{{0, spec.batchEdits}}); err != nil {
			return nil, err
		}
	}
	or := newOracle(served, travs)
	oracleDur := time.Since(tOracle)
	snap := ""
	if !spec.cluster {
		snap = filepath.Join(cfg.sb.dir, "graph.snap")
		if err := writeSnapshot(snap, in); err != nil {
			return nil, err
		}
	}
	fmt.Printf("# inputs: scale %d, %d vertices, %d arcs, generated in %.2fs, oracle in %.2fs\n", scale, in.n, in.g.NumEdges(), in.genTotal.Seconds(), oracleDur.Seconds())

	// Set-up: three cold boots, the third serves the run. The traced run
	// reports no set-up time and boots once.
	boots := 3
	if cfg.tracer != nil {
		boots = 1
	}
	var setups []float64
	var dep *deployment
	var run *serveRun
	for b := 0; b < boots; b++ {
		t0 := time.Now()
		dep, err = boot(cfg, spec, in, snap)
		if err != nil {
			return nil, err
		}
		run = newServeRun(cfg, spec, in, or, dep.tgt)
		if err := run.firstOps(dep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Printf("# boot %d: set-up %.3fs\n", b+1, setups[b])
		if b < boots-1 {
			dep.close()
		}
	}
	defer dep.close()

	d := driver{clk: wallClock{}, conns: cfg.closedConns()}
	openD := driver{clk: wallClock{}, conns: cfg.conns}
	res := &result{metrics: map[string]float64{}}
	add := func(p phase) {
		res.attempted += p.attempted
		res.failed += p.failed
	}

	// The measured time is cut into rounds, each a closed loop then an open
	// loop, after one warm-up closed loop. The closed-loop metrics are
	// medians over the rounds, so a stall of the box that lands in one round
	// does not decide the run; the percentiles are taken over the open-loop
	// ops of all rounds together, so that a stall, which delays about one op
	// in a hundred of the round it lands in, stays below the 99th percentile
	// of the run. The traced run has two rounds, the first untraced, so it
	// can state its own overhead.
	rounds := measuredRounds
	if cfg.tracer != nil {
		rounds = 2
	}
	closedDur := cfg.closedDur() / time.Duration(rounds+1)
	openDur := cfg.openDur() / time.Duration(rounds)
	perRound := map[string][]float64{}
	var lat, late []float64
	var selfCPU, wall float64
	// One closed loop more than there are rounds, run first and not measured:
	// a freshly booted graphd answers faster than one that has served for a
	// second (serve-churn's first loop ran a third faster than its later
	// ones), and nobody's traffic ends with the first second.
	warm := d.closed(0, closedDur, run.do)
	add(warm)
	next := warm.attempted
	for i := 0; i < rounds; i++ {
		if cfg.tracer != nil && i == 1 {
			run.tr = cfg.tracer
		}
		self0, wall0 := selfCPUSeconds(), time.Now()
		st, closed, open, err := run.round(d, openD, dep, next, closedDur, openDur)
		add(closed)
		add(open)
		if err != nil {
			return res, err
		}
		selfCPU, wall = selfCPUSeconds()-self0, time.Since(wall0).Seconds()
		next += closed.attempted + open.attempted
		for name, v := range st {
			perRound[name] = append(perRound[name], v)
		}
		lat = append(lat, open.lat...)
		late = append(late, open.late...)
		fmt.Printf("# round %d: closed %d ops in %.2fs, open %d ops at %.0f/s: %.1f ops/s, p50 %.0f us, %.3f cpu ms/op, %.1f KiB/op, generator late p99 %.0f us\n",
			i+1, closed.attempted, closed.elapsed.Seconds(), open.attempted, spec.openRate, st[mOps], percentile(open.lat, 0.5), st[mCPU], st[mAllocKB], percentile(open.late, 0.99))
	}
	run.tr = nil
	run.printService("all rounds")

	if spec.mutates() {
		tVerify := time.Now()
		after, err := run.verifyAfter(dep, d, needTravs)
		if err != nil {
			return res, err
		}
		add(after)
		fmt.Printf("# after the run: %d accepted edits replayed, %d sampled answers re-checked in %.2fs\n", run.acceptedEdits(), after.attempted, time.Since(tVerify).Seconds())
	}
	res.metrics[mSetup] = median(setups)
	for name, xs := range perRound {
		res.metrics[name] = median(xs)
	}
	res.metrics[mP50] = percentile(lat, 0.5)
	if res.metrics[mP99], err = p99(lat, cfg.sz.minTimedOps); err != nil {
		return res, err
	}
	// An open loop whose generator runs late measures the generator: ops are
	// timed from their due time, so its lateness is inside every latency.
	// Every run says how late it ran; a run in which one send in twenty was
	// late by a tenth of op_p50_us says that its latencies are the
	// generator's own. It still reports them and exits 0: lateness like that
	// comes from minutes in which the box is busy with someone else's work,
	// the driver's medians over ten runs drop such a run, and an exit code
	// would turn it into a rejected benchmark (README, "How late the
	// generator runs").
	late95, lateP99 := percentile(late, 0.95), percentile(late, 0.99)
	fmt.Printf("# generator lateness over %d open-loop sends: p95 %.0f us, p99 %.0f us (op_p50_us %.0f us)\n", len(late), late95, lateP99, res.metrics[mP50])
	if late95 >= res.metrics[mP50]/10 {
		fmt.Println("# note: the load generator ran late, this run's latencies are partly its own")
	}

	if cfg.tracer != nil {
		res.layer = map[string]float64{
			"loadgen.late_p99_us": lateP99,
			"loadgen.cpu_frac":    selfCPU / (wall * float64(cfg.conns)),
			"trace.overhead_frac": 1 - perRound[mOps][1]/perRound[mOps][0],
		}
		dep.close()
		if err := probeLayers(cfg, in, res.layer); err != nil {
			return res, err
		}
	}
	return res, nil
}

// round runs one closed loop, with the servers' CPU and allocation read at
// its two ends, then one open loop at the committed rate, and returns the
// round's reading of each closed-loop metric.
func (r *serveRun) round(d, openD driver, dep *deployment, first int, closedDur, openDur time.Duration) (map[string]float64, phase, phase, error) {
	cpu0, alloc0, err := usage(dep.servers)
	if err != nil {
		return nil, phase{}, phase{}, err
	}
	closed := d.closed(first, closedDur, r.do)
	cpu1, alloc1, err := usage(dep.servers)
	if err != nil {
		return nil, closed, phase{}, err
	}
	open := openD.open(first+closed.attempted, r.spec.openRate, openDur, r.do)
	if closed.ok() == 0 {
		return nil, closed, open, errors.New("no closed-loop op succeeded")
	}
	ops := float64(closed.ok())
	return map[string]float64{
		mOps:     closed.opsPerSec(),
		mCPU:     (cpu1 - cpu0) * 1000 / ops,
		mAllocKB: float64(alloc1-alloc0) / 1024 / ops,
	}, closed, open, nil
}

// writeSnapshot writes the input graph as the flat snapshot graphd recovers
// from, with unit weights and zero timestamps attached: that is the shape of
// the file graphd's own Persist writes (its snapshots carry both arrays),
// and without them the first dyngraph.SnapshotDelta after recovery falls back
// to a full rebuild — seconds at scale 16 — in the middle of the timed phase.
func writeSnapshot(path string, in *inputs) error {
	g, err := weightedCopy(in)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapfmt.Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("write snapshot: %w", err)
	}
	return f.Close()
}
