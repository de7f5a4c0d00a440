package server

// Load profile: an opt-in measurement (not a correctness gate) that drives
// one Server with a concurrent ingest writer plus mixed query workers and
// reports the sustained apply rate and per-endpoint latency percentiles.
// It is the reproducible source of experiment E11 in EXPERIMENTS.md:
//
//	GRAPHD_LOADPROFILE=1 go test -run TestLoadProfile -v ./internal/server
//
// The numbers depend on the host (worker budget = par.DefaultWorkers());
// E11 records the environment fingerprint next to the results.

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/wire"
)

func TestLoadProfile(t *testing.T) {
	if os.Getenv("GRAPHD_LOADPROFILE") == "" {
		t.Skip("set GRAPHD_LOADPROFILE=1 to run the load profile (source of EXPERIMENTS.md E11)")
	}
	const (
		vertices   = 1 << 15
		preload    = 100_000
		batchSize  = 256
		loadFor    = 8 * time.Second
		queryProcs = 2
	)
	cfg := testConfig(vertices)
	cfg.QueueCap = 1 << 13
	cfg.batchSize = 1 << 9
	s, ts := startServer(t, cfg)

	rng := rand.New(rand.NewSource(42))
	randomBatch := func(n int) []wire.IngestEdit {
		b := make([]wire.IngestEdit, n)
		for i := range b {
			src := rng.Int31n(vertices)
			dst := rng.Int31n(vertices)
			if dst == src {
				dst = (dst + 1) % vertices
			}
			b[i] = wire.IngestEdit{Src: src, Dst: dst, Weight: 1}
		}
		return b
	}
	// postAll pushes one batch through, retrying the rejected tail after
	// the advertised Retry-After-style pause, and returns 429 round-trips.
	postAll := func(b []wire.IngestEdit) (retries int) {
		for len(b) > 0 {
			code, res, _ := postIngest(t, ts.URL, b)
			switch code {
			case http.StatusAccepted:
				return retries
			case http.StatusTooManyRequests:
				retries++
				b = b[res.Accepted:]
				time.Sleep(2 * time.Millisecond)
			default:
				t.Fatalf("ingest returned %d", code)
			}
		}
		return retries
	}

	for sent := 0; sent < preload; sent += batchSize {
		postAll(randomBatch(batchSize))
	}
	waitApplied(t, s, 1) // preload batches dedup; just require the pipeline moved
	for s.StatsNow().QueueDepth > 0 {
		time.Sleep(time.Millisecond)
	}

	appliedBefore := s.Applied()
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		sentLoad int64
		retry429 int64
		mu       sync.Mutex
		lat      = map[string][]time.Duration{}
	)
	wg.Add(1)
	go func() { // ingest writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := randomBatch(batchSize)
			retry429 += int64(postAll(b))
			sentLoad += int64(len(b))
		}
	}()
	endpoints := []struct{ name, path string }{
		{"jaccard", "/query/jaccard?timeout=10s&u=%d"},
		{"khop", "/query/khop?timeout=10s&v=%d&k=2"},
		{"topdegree", "/query/topdegree?timeout=10s&k=10"},
		{"component", "/query/component?timeout=10s&v=%d"},
		{"pagerank", "/query/pagerank?timeout=10s&v=%d"},
	}
	for w := 0; w < queryProcs; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			local := map[string][]time.Duration{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					mu.Lock()
					for k, v := range local {
						lat[k] = append(lat[k], v...)
					}
					mu.Unlock()
					return
				default:
				}
				ep := endpoints[i%len(endpoints)]
				path := ep.path
				if ep.name != "topdegree" {
					path = fmt.Sprintf(ep.path, qrng.Int31n(vertices))
				}
				t0 := time.Now()
				code := getJSON(t, ts.URL, path, nil)
				if code != http.StatusOK {
					t.Errorf("%s returned %d under load", ep.name, code)
					return
				}
				local[ep.name] = append(local[ep.name], time.Since(t0))
			}
		}(int64(100 + w))
	}
	start := time.Now()
	time.Sleep(loadFor)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	applied := s.Applied() - appliedBefore

	pct := func(d []time.Duration, p float64) time.Duration {
		if len(d) == 0 {
			return 0
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		i := int(p * float64(len(d)-1))
		return d[i]
	}
	t.Logf("host: %s/%s, %d CPU, par workers %d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), par.DefaultWorkers())
	t.Logf("graph: %d vertices, %d preloaded updates; load window %v", vertices, preload, elapsed.Round(time.Millisecond))
	t.Logf("ingest: sent %d, applied %d (%.0f updates/s sustained), %d 429 retry round-trips",
		sentLoad, applied, float64(applied)/elapsed.Seconds(), retry429)
	names := make([]string, 0, len(lat))
	for k := range lat {
		names = append(names, k)
	}
	sort.Strings(names)
	total := 0
	for _, name := range names {
		d := lat[name]
		total += len(d)
		t.Logf("query %-10s n=%4d  p50=%8s  p99=%8s  max=%8s",
			name, len(d), pct(d, 0.50).Round(10*time.Microsecond),
			pct(d, 0.99).Round(10*time.Microsecond), pct(d, 1.0).Round(10*time.Microsecond))
	}
	t.Logf("queries: %d completed (%.0f/s aggregate)", total, float64(total)/elapsed.Seconds())
	if applied == 0 || total == 0 {
		t.Fatalf("load profile produced no work: applied=%d queries=%d", applied, total)
	}

	// Quiescent phase: same query mix with ingest stopped, so the version
	// is stable and the per-version component/PageRank caches hold. The
	// delta against the loaded numbers is the cost of cache invalidation
	// plus admission wait behind recomputes.
	qlat := map[string][]time.Duration{}
	qrng := rand.New(rand.NewSource(7))
	qend := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(qend); i++ {
		ep := endpoints[i%len(endpoints)]
		path := ep.path
		if ep.name != "topdegree" {
			path = fmt.Sprintf(ep.path, qrng.Int31n(vertices))
		}
		t0 := time.Now()
		if code := getJSON(t, ts.URL, path, nil); code != http.StatusOK {
			t.Fatalf("quiescent %s returned %d", ep.name, code)
		}
		qlat[ep.name] = append(qlat[ep.name], time.Since(t0))
	}
	for _, name := range names {
		d := qlat[name]
		t.Logf("quiescent %-10s n=%4d  p50=%8s  p99=%8s",
			name, len(d), pct(d, 0.50).Round(10*time.Microsecond), pct(d, 0.99).Round(10*time.Microsecond))
	}
}
