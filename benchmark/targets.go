package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
)

// opTimeout is the client deadline sent with wire requests; HTTP requests
// rely on the server's default (2s), which is the same value.
const opTimeout = 2 * time.Second

// target is a serving endpoint the load driver can aim at: one graphd over
// the wire protocol, or one graphd or graphctl over HTTP/JSON.
type target interface {
	component(conn int, v int32) (*wire.ComponentResult, error)
	pagerank(conn int, v int32) (*wire.PageRankResult, error)
	topdegree(conn int, k int32) (*wire.TopDegreeResult, error)
	khop(conn int, v int32, k int32) (*wire.KHopResult, error)
	jaccard(conn int, u int32) (*wire.JaccardResult, error)
	// ingest returns how many of the edits were accepted; a short count
	// (backpressure) comes with an error.
	ingest(conn int, edits []edit) (int, error)
	ping(conn int) error
	close()
}

// wireTarget holds one wire.Client per driver connection.
type wireTarget struct {
	clients []*wire.Client
}

func dialWire(addr string, conns int) (*wireTarget, error) {
	t := &wireTarget{}
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("dial wire %s: %w", addr, err)
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *wireTarget) close() {
	for _, c := range t.clients {
		c.Close()
	}
}

func (t *wireTarget) component(conn int, v int32) (*wire.ComponentResult, error) {
	return t.clients[conn].Component(v, opTimeout)
}
func (t *wireTarget) pagerank(conn int, v int32) (*wire.PageRankResult, error) {
	return t.clients[conn].PageRankVertex(v, opTimeout)
}
func (t *wireTarget) topdegree(conn int, k int32) (*wire.TopDegreeResult, error) {
	return t.clients[conn].TopDegree(k, opTimeout)
}
func (t *wireTarget) khop(conn int, v int32, k int32) (*wire.KHopResult, error) {
	return t.clients[conn].KHop([]int32{v}, k, opTimeout)
}
func (t *wireTarget) jaccard(conn int, u int32) (*wire.JaccardResult, error) {
	return t.clients[conn].Jaccard(u, 0, opTimeout)
}
func (t *wireTarget) ping(conn int) error { return t.clients[conn].Ping(opTimeout) }
func (t *wireTarget) ingest(conn int, edits []edit) (int, error) {
	we := make([]wire.IngestEdit, len(edits))
	for i, e := range edits {
		we[i] = wire.IngestEdit{Src: e.Src, Dst: e.Dst, Delete: e.Delete}
	}
	res, err := t.clients[conn].Ingest(we, opTimeout)
	if res == nil {
		return 0, err
	}
	return res.Accepted, err
}

// httpTarget speaks graphd's HTTP/JSON API, which graphctl serves too. The
// transport keeps at most conns connections, one per driver goroutine.
type httpTarget struct {
	base string
	c    *http.Client
}

func newHTTPTarget(addr string, conns int) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &httpTarget{base: "http://" + addr, c: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (t *httpTarget) close() { t.c.CloseIdleConnections() }

var errStatus = errors.New("unexpected HTTP status")

// do issues the request, drains the body so the connection is reused, and
// decodes it when the status is want.
func (t *httpTarget) do(req *http.Request, want int, out any) (int, error) {
	resp, err := t.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != want {
		return resp.StatusCode, fmt.Errorf("%w %d from %s", errStatus, resp.StatusCode, req.URL.Path)
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, out)
}

func (t *httpTarget) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, t.base+path, nil)
	if err != nil {
		return err
	}
	_, err = t.do(req, http.StatusOK, out)
	return err
}

func (t *httpTarget) component(_ int, v int32) (*wire.ComponentResult, error) {
	out := &wire.ComponentResult{}
	return out, t.get(fmt.Sprintf("/query/component?v=%d", v), out)
}
func (t *httpTarget) pagerank(_ int, v int32) (*wire.PageRankResult, error) {
	out := &wire.PageRankResult{}
	return out, t.get(fmt.Sprintf("/query/pagerank?v=%d", v), out)
}
func (t *httpTarget) topdegree(_ int, k int32) (*wire.TopDegreeResult, error) {
	out := &wire.TopDegreeResult{}
	return out, t.get(fmt.Sprintf("/query/topdegree?k=%d", k), out)
}
func (t *httpTarget) khop(_ int, v int32, k int32) (*wire.KHopResult, error) {
	out := &wire.KHopResult{}
	return out, t.get(fmt.Sprintf("/query/khop?v=%d&k=%d", v, k), out)
}
func (t *httpTarget) jaccard(_ int, u int32) (*wire.JaccardResult, error) {
	out := &wire.JaccardResult{}
	return out, t.get(fmt.Sprintf("/query/jaccard?u=%d", u), out)
}
func (t *httpTarget) ping(int) error { return t.get("/healthz", nil) }

func (t *httpTarget) ingest(_ int, edits []edit) (int, error) {
	body, err := json.Marshal(edits)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, t.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var res wire.IngestResult
	switch resp.StatusCode {
	case http.StatusAccepted:
		return len(edits), nil
	case http.StatusTooManyRequests:
		if err := json.Unmarshal(raw, &res); err != nil {
			return 0, err
		}
		return res.Accepted, fmt.Errorf("%w 429 from /ingest", errStatus)
	default:
		return 0, fmt.Errorf("%w %d from /ingest", errStatus, resp.StatusCode)
	}
}
