package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/wire"
)

// ShardAddr names one shard process: the wire listener the coordinator
// exchanges shard ops with (required) and the HTTP listener it polls
// /readyz on (optional — without it the shard's readiness check reflects
// wire reachability only).
type ShardAddr struct {
	// Wire is the shard's -listen-wire address.
	Wire string
	// HTTP is the shard's -listen address, used for /readyz polling; empty
	// disables the HTTP readiness probe for this shard.
	HTTP string
}

// shardConn is the coordinator's handle on one shard: a lazily-dialed wire
// connection (redialed transparently after a shard restart) plus the
// health state maintained by the poll loop.
type shardConn struct {
	index int
	addr  ShardAddr

	// mu guards client. wire.Client is not safe for concurrent use, so
	// every exchange with this shard is serialized here; fan-outs across
	// shards still run in parallel because each shard has its own conn.
	mu     sync.Mutex
	client *wire.Client

	// stMu guards the poll-loop health fields below.
	stMu       sync.Mutex
	reachable  bool   // last wire shard.meta round-trip succeeded
	httpReady  bool   // last HTTP /readyz answered 200 (true when unpolled)
	registered bool   // meta matched the coordinator's config at least once
	detail     string // human-readable evidence for the readiness check
	version    int64  // shard snapshot version from the last meta
	owned      int64  // owned-vertex count from the last meta
}

// call runs fn against the shard's wire client under the per-shard lock,
// dialing on first use. A transport error means the shard is unreachable:
// it drops the connection so the next call redials (how a restarted shard
// rejoins) and answers 503. Status errors and coordinator-level errors
// (skew, response validation) keep it — the stream is still framed and
// healthy.
func (sc *shardConn) call(fn func(c *wire.Client) error) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var err error
	if sc.client == nil {
		sc.client, err = wire.Dial(sc.addr.Wire)
	}
	if err == nil {
		err = fn(sc.client)
	}
	if err == nil || hasStatus(err) {
		return err
	}
	if sc.client != nil {
		sc.client.Close()
		sc.client = nil
	}
	return wire.Errorf(http.StatusServiceUnavailable, "%v", err)
}

// hasStatus reports whether err carries a status of its own — a shard's
// answer or a coordinator verdict — rather than being the transport's.
func hasStatus(err error) bool {
	var se *wire.StatusError
	var we *wire.Error
	return errors.As(err, &se) || errors.As(err, &we)
}

// closeConn drops the shard's wire connection if open.
func (sc *shardConn) closeConn() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.client != nil {
		sc.client.Close()
		sc.client = nil
	}
}

// meta fetches the shard's identity and validates it against the
// coordinator's expectations: right index, right shard count, same graph
// shape. A mismatched shard is an operator error surfaced at registration,
// never silently queried.
func (c *Coordinator) meta(sc *shardConn, timeout time.Duration) (*wire.ShardMeta, error) {
	var m *wire.ShardMeta
	err := sc.call(func(cl *wire.Client) error {
		var err error
		m, err = cl.ShardMeta(timeout)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m.Index != sc.index || m.Count != len(c.shards) {
		return nil, fmt.Errorf("shard at %s identifies as %d/%d, coordinator expects %d/%d",
			sc.addr.Wire, m.Index, m.Count, sc.index, len(c.shards))
	}
	if m.Vertices != c.cfg.Vertices || m.Directed != c.cfg.Directed {
		return nil, fmt.Errorf("shard %d graph shape (vertices=%d directed=%v) disagrees with coordinator (vertices=%d directed=%v)",
			sc.index, m.Vertices, m.Directed, c.cfg.Vertices, c.cfg.Directed)
	}
	return m, nil
}

// pollShard refreshes one shard's health state: a wire shard.meta
// round-trip (reachability + registration validation) and, when an HTTP
// address is configured, a /readyz probe.
func (c *Coordinator) pollShard(sc *shardConn) {
	m, err := c.meta(sc, c.cfg.PollInterval)
	sc.stMu.Lock()
	if err != nil {
		sc.reachable = false
		sc.detail = err.Error()
		sc.stMu.Unlock()
		c.m.shardErrors(sc.index).Inc()
		return
	}
	sc.reachable = true
	sc.registered = true
	sc.version = m.Version
	sc.owned = m.Owned
	sc.detail = fmt.Sprintf("version %d, owns %d vertices", m.Version, m.Owned)
	sc.stMu.Unlock()

	if sc.addr.HTTP == "" {
		return
	}
	ready, detail := probeReadyz(c.httpClient, sc.addr.HTTP)
	sc.stMu.Lock()
	sc.httpReady = ready
	if !ready {
		sc.detail = detail
	}
	sc.stMu.Unlock()
}

// probeReadyz asks a shard's HTTP listener for /readyz; any non-200 (a
// draining or degraded shard) reads as not ready.
func probeReadyz(client *http.Client, addr string) (bool, string) {
	resp, err := client.Get("http://" + addr + "/readyz")
	if err != nil {
		return false, "readyz probe: " + err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("readyz = %d", resp.StatusCode)
	}
	return true, ""
}

// pollLoop refreshes every shard's health on the poll interval until Close.
func (c *Coordinator) pollLoop() {
	defer c.pollWG.Done()
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.pollAll()
		}
	}
}

// pollAll polls every shard concurrently and refreshes the ready gauge.
func (c *Coordinator) pollAll() {
	var wg sync.WaitGroup
	for _, sc := range c.shards {
		wg.Add(1)
		go func(sc *shardConn) {
			defer wg.Done()
			c.pollShard(sc)
		}(sc)
	}
	wg.Wait()
	ready := 0
	for _, sc := range c.shards {
		if shardReady(sc) {
			ready++
		}
	}
	c.m.shardsReady.Set(float64(ready))
}

// shardReady condenses one shard's poll state into the readiness verdict.
func shardReady(sc *shardConn) bool {
	sc.stMu.Lock()
	defer sc.stMu.Unlock()
	return sc.reachable && sc.registered && (sc.addr.HTTP == "" || sc.httpReady)
}

// ReadyCheck is one per-shard check inside the coordinator's Readiness —
// the same JSON shape as a graphd /readyz component check, because the
// coordinator's health model is an aggregation of its shards'.
type ReadyCheck struct {
	// Name identifies the check ("shard-0", "shard-1", ...).
	Name string `json:"name"`
	// OK reports whether the shard is reachable, registered, and ready.
	OK bool `json:"ok"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
}

// Readiness is the coordinator's /readyz payload: ready iff every shard is.
type Readiness struct {
	// Ready is the conjunction of all shard checks.
	Ready bool `json:"ready"`
	// Checks hold one entry per shard, in shard-index order.
	Checks []ReadyCheck `json:"checks"`
}

// Readiness evaluates the aggregated cluster readiness from the latest
// poll state: the cluster is ready iff every shard is reachable over the
// wire, passed registration validation, and (when an HTTP address is
// configured) answers /readyz with 200. A not-ready cluster still serves
// the queries it can — this is the load-balancer signal, not a circuit
// breaker.
func (c *Coordinator) Readiness() Readiness {
	r := Readiness{Ready: true}
	for _, sc := range c.shards {
		sc.stMu.Lock()
		ok := sc.reachable && sc.registered && (sc.addr.HTTP == "" || sc.httpReady)
		detail := sc.detail
		sc.stMu.Unlock()
		if ok && detail == "" {
			detail = "ready"
		}
		if !ok && detail == "" {
			detail = "not yet polled"
		}
		r.Checks = append(r.Checks, ReadyCheck{Name: fmt.Sprintf("shard-%d", sc.index), OK: ok, Detail: detail})
		r.Ready = r.Ready && ok
	}
	return r
}
