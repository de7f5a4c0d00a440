package snapfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
)

func buildGraph(t *testing.T, directed bool, n int32, edges [][2]int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n).Weighted().Timestamped()
	if !directed {
		b = b.Undirected()
	}
	for i, e := range edges {
		b.AddEdge(graph.Edge{Src: e[0], Dst: e[1], Weight: float32(i + 1), Time: int64(100 + i)})
	}
	return b.Build()
}

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.Directed() != b.Directed() {
		t.Fatalf("shape mismatch: (%d,%v) vs (%d,%v)", a.NumVertices(), a.Directed(), b.NumVertices(), b.Directed())
	}
	ao, at, aw, atm := a.CSR()
	bo, bt, bw, btm := b.CSR()
	if !int64sEqual(ao, bo) || !int32sEqual(at, bt) || !int64sEqual(atm, btm) {
		t.Fatal("CSR arrays differ")
	}
	if (aw == nil) != (bw == nil) || len(aw) != len(bw) {
		t.Fatal("weights differ in presence or length")
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("weight %d differs", i)
		}
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func encode(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		directed bool
		n        int32
		edges    [][2]int32
	}{
		{"directed", true, 6, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {4, 5}, {5, 0}}},
		{"undirected", false, 5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}},
		{"isolated vertices", true, 10, [][2]int32{{7, 2}}},
		{"no edges", false, 4, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := buildGraph(t, c.directed, c.n, c.edges)
			data := encode(t, g)
			got, err := Read(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			sameGraph(t, g, got)

			// Unknown size must work too (bounded incremental allocation).
			got2, err := Read(bytes.NewReader(data), -1)
			if err != nil {
				t.Fatalf("Read(size=-1): %v", err)
			}
			sameGraph(t, g, got2)
		})
	}
}

// TestPersistPatchedSnapshot: a dyngraph snapshot patched in place keeps its
// rows scattered over a shared arena; the file written from it must be byte
// for byte the file of the same graph laid out contiguously, and read back
// equal. Checked at every link of a chain that patches and compacts.
func TestPersistPatchedSnapshot(t *testing.T) {
	const n = 64
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(18))
		dyn := dyngraph.New(n, directed)
		tip := dyn.Snapshot()
		scattered := 0
		for step := 0; step < 12; step++ {
			size := 8
			if step == 0 {
				size = 400
			}
			var edits []dyngraph.Edit
			var touched []int32
			for i := 0; i < size; i++ {
				e := dyngraph.Edit{Src: rng.Int31n(n), Dst: rng.Int31n(n), Weight: rng.Float32() + 1, Time: int64(step), Delete: step > 0 && i%3 == 0}
				edits = append(edits, e)
				touched = append(touched, e.Src, e.Dst)
			}
			dyn.ApplyEdits(edits)
			tip = dyn.SnapshotDelta(tip, touched)
			// Back-to-back rows each start where the one before ends, so the
			// capacity left after a row is the next row's; a row patched in
			// place sits at the arena's tail instead.
			for v := int32(1); v < n; v++ {
				if a, b := tip.Neighbors(v-1), tip.Neighbors(v); cap(b) != cap(a)-len(a) {
					scattered++
					break
				}
			}

			off, tgt, w, ts := tip.CSR()
			flat, err := graph.FromCSRArrays(n, directed, off, tgt, w, ts)
			if err != nil {
				t.Fatal(err)
			}
			data := encode(t, tip)
			if !bytes.Equal(data, encode(t, dyn.Snapshot())) || !bytes.Equal(data, encode(t, flat)) {
				t.Fatalf("directed=%v step=%d: file of a patched snapshot differs from the file of the same graph emitted whole", directed, step)
			}
			got, err := Read(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tip) {
				t.Fatalf("directed=%v step=%d: patched snapshot read back different", directed, step)
			}
		}
		if scattered < 4 {
			t.Fatalf("directed=%v: only %d of 12 links were patched in place; the test needs non-contiguous snapshots", directed, scattered)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	g, err := graph.FromCSRArrays(0, false, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := encode(t, g)
	got, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 {
		t.Fatalf("empty graph read back with %d vertices", got.NumVertices())
	}
}

func TestReadFileAndSniff(t *testing.T) {
	g := buildGraph(t, true, 4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gsnf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameGraph(t, g, got)

	ok, err := SniffFile(path)
	if err != nil || !ok {
		t.Fatalf("SniffFile(flat) = %v, %v", ok, err)
	}

	// The per-edge format graphd wrote before this one starts with "GRPH"
	// little-endian (bytes "HPRG").
	legacy := filepath.Join(dir, "legacy.bin")
	if err := os.WriteFile(legacy, []byte{0x48, 0x50, 0x52, 0x47, 0, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err = SniffFile(legacy)
	if err != nil || ok {
		t.Fatalf("SniffFile(legacy) = %v, %v", ok, err)
	}

	short := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(short, []byte{0x47}, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err = SniffFile(short)
	if err != nil || ok {
		t.Fatalf("SniffFile(short) = %v, %v", ok, err)
	}
}

func mustCorrupt(t *testing.T, name string, data []byte) {
	t.Helper()
	_, err := Read(bytes.NewReader(data), int64(len(data)))
	if err == nil {
		t.Fatalf("%s: accepted", name)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	g := buildGraph(t, false, 5, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	good := encode(t, g)

	flipped := bytes.Clone(good)
	flipped[headerSize+3] ^= 0x40 // payload bit flip → CRC mismatch
	mustCorrupt(t, "bit flip", flipped)

	badCRC := bytes.Clone(good)
	badCRC[len(badCRC)-1] ^= 0xff
	mustCorrupt(t, "bad trailer", badCRC)

	mustCorrupt(t, "truncated", good[:len(good)-10])
	mustCorrupt(t, "empty", nil)
	mustCorrupt(t, "header only", good[:headerSize])

	badMagic := bytes.Clone(good)
	badMagic[0] ^= 0xff
	mustCorrupt(t, "bad magic", badMagic)

	badVersion := bytes.Clone(good)
	binary.LittleEndian.PutUint16(badVersion[4:], Version+9)
	mustCorrupt(t, "bad version", badVersion)

	badFlags := bytes.Clone(good)
	binary.LittleEndian.PutUint16(badFlags[6:], 0xff)
	mustCorrupt(t, "unknown flags", badFlags)

	// A header claiming far more arcs than the file holds must fail on the
	// size check (with size known) and on truncation (without), never by
	// allocating the claimed amount.
	hostile := bytes.Clone(good)
	binary.LittleEndian.PutUint64(hostile[12:], 1<<40)
	mustCorrupt(t, "hostile arc count", hostile)
	if _, err := Read(bytes.NewReader(hostile), -1); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile arc count, unknown size: err = %v", err)
	}

	trailing := append(bytes.Clone(good), 0x00)
	mustCorrupt(t, "trailing byte", trailing)
}

// craftValid builds a file with a correct checksum around arbitrary CSR
// arrays, proving the per-arc validation catches what the CRC cannot.
func craftValid(offsets []int64, targets []int32) []byte {
	n := len(offsets) - 1
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint16(hdr[6:], flagDirected)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(targets)))
	body := append([]byte(nil), hdr...)
	for _, v := range offsets {
		body = binary.LittleEndian.AppendUint64(body, uint64(v))
	}
	for _, v := range targets {
		body = binary.LittleEndian.AppendUint32(body, uint32(v))
	}
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

func TestReadRejectsBadCSR(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		targets []int32
	}{
		{"target out of range", []int64{0, 1, 2}, []int32{0, 5}},
		{"negative target", []int64{0, 1, 1}, []int32{-1}},
		{"row not sorted", []int64{0, 2, 2}, []int32{1, 0}},
		{"duplicate in row", []int64{0, 2, 2}, []int32{1, 1}},
		{"offsets not monotone", []int64{0, 2, 1}, []int32{0}},
		{"final offset short", []int64{0, 1, 1}, []int32{0, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mustCorrupt(t, c.name, craftValid(c.offsets, c.targets))
		})
	}
}

// TestReadAllocBudget: a sized Read of an R-MAT s12 snapshot (bare targets,
// and with weight and time arrays) allocates the arrays once at their exact
// length plus one scratch chunk — at most 1.25x the file, where growing each
// array from a one-chunk seed cost about 5x.
func TestReadAllocBudget(t *testing.T) {
	edges := gen.RMATEdgeStream(12, 16<<12, gen.Graph500RMAT, 1)
	full := graph.NewBuilder(1 << 12).Undirected().Weighted().Timestamped().DedupEdges()
	for i, e := range edges {
		full.AddEdge(graph.Edge{Src: e[0], Dst: e[1], Weight: 1, Time: int64(i)})
	}
	for name, g := range map[string]*graph.Graph{
		"bare": graph.FromEdges(1<<12, false, edges),
		"full": full.Build(),
	} {
		data := encode(t, g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Read(bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameGraph(t, g, got)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(len(data))*5/4; alloc > budget {
			t.Errorf("%s: Read allocated %d B for a %d B file, budget %d B", name, alloc, len(data), budget)
		}
	}
}
