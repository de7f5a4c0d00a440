package wire

import (
	"encoding/binary"
	"slices"
	"time"
)

// Shard-exchange ops: the coordinator↔shard vocabulary layered on the same
// framing as the client-facing query set. A graphd started with
// -shard-index/-shard-count answers these from its owned vertex range; the
// coordinator (cmd/graphctl) drives BSP supersteps by exchanging dense
// value vectors through OpShardPRStep and merging per-shard kernel state
// from OpShardWCC/OpShardDegrees. Every response carries the shard's
// snapshot version so the coordinator can detect cross-shard version skew
// and retry. Shard ops are not batchable: each is already a bulk transfer.
const (
	// OpShardMeta requests a shard's identity and graph shape (registration
	// handshake + health poll).
	OpShardMeta byte = 10
	// OpShardDegrees requests the degrees of the shard's owned vertices in
	// ascending vertex order.
	OpShardDegrees byte = 11
	// OpShardWCC requests the shard's local connected-component labels.
	OpShardWCC byte = 12
	// OpShardPRStep pushes a dense rank vector and requests the shard's
	// PageRank contributions from its owned vertices (one BSP superstep).
	OpShardPRStep byte = 13
	// OpShardAdj requests adjacency lists for a set of owned vertices (the
	// frontier exchange for distributed BFS/k-hop and jaccard replay).
	OpShardAdj byte = 14
)

// ShardMeta answers an OpShardMeta request: the shard's position in the
// cluster and the graph shape it was configured with. The coordinator
// rejects a shard whose Count/Vertices/Directed disagree with its own
// configuration — a mis-wired shard fails at registration, not mid-query.
type ShardMeta struct {
	// Index is the shard's position in [0, Count).
	Index int `json:"index"`
	// Count is the cluster's total shard count the shard was started with.
	Count int `json:"count"`
	// Vertices is the global vertex-ID space size.
	Vertices int32 `json:"vertices"`
	// Directed reports the shard's edge orientation mode.
	Directed bool `json:"directed"`
	// Owned is the number of vertices this shard owns.
	Owned int64 `json:"owned"`
	// Version is the shard's current snapshot version.
	Version int64 `json:"version"`
}

// AppendShardMeta appends a ShardMeta body.
func AppendShardMeta(b []byte, v *ShardMeta) []byte {
	b = binary.AppendUvarint(b, uint64(v.Index))
	b = binary.AppendUvarint(b, uint64(v.Count))
	b = binary.AppendUvarint(b, uint64(uint32(v.Vertices)))
	var flags byte
	if v.Directed {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(v.Owned))
	b = binary.AppendUvarint(b, uint64(v.Version))
	return b
}

// DecodeShardMeta decodes a ShardMeta body.
func DecodeShardMeta(r *Reader, out *ShardMeta) error {
	out.Index = int(r.Uvarint())
	out.Count = int(r.Uvarint())
	out.Vertices = r.Vertex()
	out.Directed = r.Byte()&1 != 0
	out.Owned = int64(r.Uvarint())
	out.Version = int64(r.Uvarint())
	return r.Err()
}

// ShardDegreesResult answers an OpShardDegrees request: the out-degrees of
// the shard's owned vertices in ascending vertex order. The coordinator
// re-derives which global vertex each entry belongs to by enumerating the
// same hash partition, so vertex IDs never travel.
type ShardDegreesResult struct {
	// Version is the snapshot version the degrees were read at.
	Version int64 `json:"version"`
	// Degrees are the owned vertices' degrees, ascending vertex order.
	Degrees []int64 `json:"degrees"`
}

// AppendShardDegreesResult appends a ShardDegreesResult body.
func AppendShardDegreesResult(b []byte, v *ShardDegreesResult) []byte {
	b = binary.AppendUvarint(b, uint64(v.Version))
	b = binary.AppendUvarint(b, uint64(len(v.Degrees)))
	for _, d := range v.Degrees {
		b = binary.AppendUvarint(b, uint64(d))
	}
	return b
}

// DecodeShardDegreesResult decodes a ShardDegreesResult body, reusing out's
// slice.
func DecodeShardDegreesResult(r *Reader, out *ShardDegreesResult) error {
	out.Version = int64(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Remaining()) { // each degree is >= 1 byte
		r.fail("shard degree count %d exceeds remaining %d bytes", n, r.Remaining())
		return r.Err()
	}
	out.Degrees = out.Degrees[:0]
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out.Degrees = append(out.Degrees, int64(r.Uvarint()))
	}
	return r.Err()
}

// ShardWCCResult answers an OpShardWCC request: the shard's local
// connected-component labels over the full vertex-ID space, canonical
// min-member form (kernels.WCC). Because labels are min-member canonical,
// the coordinator merges shards with a union-find over label edges and
// reproduces the single-process labels byte-identically.
type ShardWCCResult struct {
	// Version is the snapshot version the labels were computed at.
	Version int64 `json:"version"`
	// Labels is the dense label vector, one entry per global vertex.
	Labels []int32 `json:"labels"`
}

// AppendShardWCCResult appends a ShardWCCResult body.
func AppendShardWCCResult(b []byte, v *ShardWCCResult) []byte {
	b = binary.AppendUvarint(b, uint64(v.Version))
	b = binary.AppendUvarint(b, uint64(len(v.Labels)))
	for _, l := range v.Labels {
		b = binary.AppendUvarint(b, uint64(uint32(l)))
	}
	return b
}

// DecodeShardWCCResult decodes a ShardWCCResult body, reusing out's slice.
func DecodeShardWCCResult(r *Reader, out *ShardWCCResult) error {
	out.Version = int64(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Remaining()) { // each label is >= 1 byte
		r.fail("shard label count %d exceeds remaining %d bytes", n, r.Remaining())
		return r.Err()
	}
	out.Labels = out.Labels[:0]
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out.Labels = append(out.Labels, r.Vertex())
	}
	return r.Err()
}

// ShardPRStepResult answers an OpShardPRStep request: the dense contribution
// vector contrib[w] = Σ rank[u]/deg(u) over the shard's owned vertices u
// with an arc u→w. The coordinator sums the per-shard vectors in shard
// order and applies damping and the dangling mass itself.
type ShardPRStepResult struct {
	// Version is the snapshot version the step ran at.
	Version int64 `json:"version"`
	// Contrib is the dense contribution vector, one entry per global vertex.
	Contrib []float64 `json:"contrib"`
}

// AppendShardPRStepResult appends a ShardPRStepResult body.
func AppendShardPRStepResult(b []byte, v *ShardPRStepResult) []byte {
	b = binary.AppendUvarint(b, uint64(v.Version))
	b = binary.AppendUvarint(b, uint64(len(v.Contrib)))
	for _, c := range v.Contrib {
		b = AppendF64(b, c)
	}
	return b
}

// DecodeShardPRStepResult decodes a ShardPRStepResult body, reusing out's
// slice.
func DecodeShardPRStepResult(r *Reader, out *ShardPRStepResult) error {
	out.Version = int64(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Remaining())/8 { // each contribution is 8 bytes
		r.fail("shard contrib count %d exceeds remaining %d bytes", n, r.Remaining())
		return r.Err()
	}
	out.Contrib = out.Contrib[:0]
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out.Contrib = append(out.Contrib, r.F64())
	}
	return r.Err()
}

// ShardAdjResult answers an OpShardAdj request: one sorted neighbor list
// per requested vertex, in request order, held flat — list i is
// Targets[Offsets[i]:Offsets[i+1]] — so that however many lists a frontier
// has, an answer fills two arrays the caller keeps and reuses. List i
// belongs to the i-th requested vertex; requesting a vertex the shard does
// not own is a request error, because only the owner holds the complete
// adjacency.
type ShardAdjResult struct {
	// Version is the snapshot version the lists were read at.
	Version int64 `json:"version"`
	// Offsets holds one entry per list plus a final one; Offsets[0] is 0.
	Offsets []int `json:"offsets"`
	// Targets holds the lists back to back.
	Targets []int32 `json:"targets"`
}

// Len returns the number of lists.
func (v *ShardAdjResult) Len() int { return max(len(v.Offsets)-1, 0) }

// List returns list i, aliasing Targets.
func (v *ShardAdjResult) List(i int) []int32 { return v.Targets[v.Offsets[i]:v.Offsets[i+1]] }

// Reset empties v's lists for refilling, keeping their storage. Version is
// left as it stands: whoever fills v sets it.
func (v *ShardAdjResult) Reset() {
	v.Offsets = append(v.Offsets[:0], 0)
	v.Targets = v.Targets[:0]
}

// AppendList appends one list to v, which must have been Reset.
func (v *ShardAdjResult) AppendList(list []int32) {
	v.Targets = append(v.Targets, list...)
	v.Offsets = append(v.Offsets, len(v.Targets))
}

// AppendShardAdjResult appends a ShardAdjResult body: the version, the list
// count, then each list as its length and its vertices.
func AppendShardAdjResult(b []byte, v *ShardAdjResult) []byte {
	b = binary.AppendUvarint(b, uint64(v.Version))
	n := v.Len()
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		list := v.List(i)
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, w := range list {
			b = binary.AppendUvarint(b, uint64(uint32(w)))
		}
	}
	return b
}

// DecodeShardAdjResult decodes a ShardAdjResult body into out, reusing
// out's Offsets and Targets: into storage that has held an answer as large,
// a decode allocates nothing.
func DecodeShardAdjResult(r *Reader, out *ShardAdjResult) error {
	out.Reset()
	out.Version = int64(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Remaining()) { // each list costs >= 1 byte (its length)
		r.fail("shard adjacency list count %d exceeds remaining %d bytes", n, r.Remaining())
		return r.Err()
	}
	out.Offsets = slices.Grow(out.Offsets, int(n))
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		l := r.Uvarint()
		if l > uint64(r.Remaining()) { // each neighbor is >= 1 byte
			r.fail("shard adjacency length %d exceeds remaining %d bytes", l, r.Remaining())
			return r.Err()
		}
		out.Targets = slices.Grow(out.Targets, int(l))
		for j := uint64(0); j < l && r.Err() == nil; j++ {
			out.Targets = append(out.Targets, r.Vertex())
		}
		out.Offsets = append(out.Offsets, len(out.Targets))
	}
	return r.Err()
}

// ShardMeta requests the shard's identity and graph shape.
func (c *Client) ShardMeta(timeout time.Duration) (*ShardMeta, error) {
	c.req = Request{Op: OpShardMeta, TimeoutMicros: timeoutMicros(timeout)}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &ShardMeta{}
	if err := DecodeShardMeta(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardDegrees requests the shard's owned-vertex degrees.
func (c *Client) ShardDegrees(timeout time.Duration) (*ShardDegreesResult, error) {
	c.req = Request{Op: OpShardDegrees, TimeoutMicros: timeoutMicros(timeout)}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &ShardDegreesResult{}
	if err := DecodeShardDegreesResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardWCC requests the shard's local connected-component labels.
func (c *Client) ShardWCC(timeout time.Duration) (*ShardWCCResult, error) {
	c.req = Request{Op: OpShardWCC, TimeoutMicros: timeoutMicros(timeout)}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &ShardWCCResult{}
	if err := DecodeShardWCCResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardPRStep runs one PageRank superstep on the shard against the supplied
// dense rank vector.
func (c *Client) ShardPRStep(rank []float64, timeout time.Duration) (*ShardPRStepResult, error) {
	c.req = Request{Op: OpShardPRStep, TimeoutMicros: timeoutMicros(timeout), Rank: rank}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &ShardPRStepResult{}
	if err := DecodeShardPRStepResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardAdj requests adjacency lists for vertices the shard owns and decodes
// the answer into out, whose storage the caller owns and may reuse.
func (c *Client) ShardAdj(vertices []int32, timeout time.Duration, out *ShardAdjResult) error {
	c.req = Request{Op: OpShardAdj, TimeoutMicros: timeoutMicros(timeout), Seeds: vertices}
	r, _, err := c.do(&c.req)
	if err != nil {
		return err
	}
	return DecodeShardAdjResult(&r, out)
}
