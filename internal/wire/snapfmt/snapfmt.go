// Package snapfmt defines graphd's flat snapshot format: a fixed header,
// the raw little-endian CSR arrays of an immutable graph, and a CRC-32C
// trailer.
//
// The format writes the already-built CSR arrays verbatim, so recovery is
// O(read) rather than a re-insert per edge: decode the arrays in large
// chunks, hand them to graph.FromCSRArrays (O(n) structural checks, arrays
// adopted not copied), and bulk-load the dynamic graph with
// dyngraph.FromCSRGraph. It is graphd's only on-disk format.
//
// Layout (all little-endian):
//
//	offset  size  field
//	0       4     magic "GSNF"
//	4       2     version (currently 1)
//	6       2     flags: bit0 directed, bit1 has weights, bit2 has times
//	8       4     vertex count n
//	12      8     arc count m (undirected edges appear twice, as in CSR)
//	20      8(n+1)  offsets  (omitted when n == 0)
//	...     4m    targets
//	...     4m    weights  (iff flag bit1)
//	...     8m    times    (iff flag bit2)
//	end-4   4     CRC-32C (Castagnoli) of every preceding byte
//
// Read validates everything a hostile file could lie about: header sanity,
// file size against the header's implied size, the checksum, CSR structure
// (monotone offsets, exact array lengths), and per-arc invariants (targets
// in range, no self-loops, rows strictly increasing — the sortedness the
// query kernels' binary searches rely on). Malformed content fails with an error wrapping
// ErrCorrupt so callers can distinguish "bad file, quarantine and fall back"
// from I/O errors. Allocation while reading is bounded by bytes actually
// received, never by claimed counts, so truncated or hostile headers cannot
// balloon memory (fuzzed by FuzzSnapshotHeader).
package snapfmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/graph"
)

// Format constants.
const (
	// Magic identifies a flat snapshot: the bytes "GSNF" read little-endian.
	Magic uint32 = 0x464E5347
	// Version is the format version this package writes.
	Version uint16 = 1
	// headerSize is the fixed header length in bytes.
	headerSize = 20
	// trailerSize is the CRC trailer length in bytes.
	trailerSize = 4
	// chunkBytes bounds scratch buffers and read-ahead allocation; it is also
	// the fixed overhead of reading a small file.
	chunkBytes = 64 << 10
)

// Header flag bits.
const (
	flagDirected uint16 = 1 << 0
	flagWeights  uint16 = 1 << 1
	flagTimes    uint16 = 1 << 2
)

// ErrCorrupt marks a structurally invalid or checksum-failing snapshot.
// Callers match it with errors.Is to quarantine the file and fall back to an
// empty graph; plain I/O errors are returned unwrapped.
var ErrCorrupt = errors.New("snapfmt: corrupt snapshot")

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// corruptEOF maps short reads to ErrCorrupt (a truncated file is a corrupt
// file) while passing real I/O errors through.
func corruptEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptf("truncated: %v", err)
	}
	return err
}

// Write serializes g to w. The CSR arrays stream through a bounded scratch
// buffer and the CRC accumulates as bytes leave, so writing a contiguous
// graph never copies it; a patched dyngraph snapshot, whose rows are
// scattered over a shared arena, is first compacted by g.CSR().
func Write(w io.Writer, g *graph.Graph) error {
	offsets, targets, weights, times := g.CSR()
	n := g.NumVertices()
	var flags uint16
	if g.Directed() {
		flags |= flagDirected
	}
	if weights != nil {
		flags |= flagWeights
	}
	if times != nil {
		flags |= flagTimes
	}

	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), chunkBytes)

	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(targets)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	scratch := make([]byte, chunkBytes)
	if n > 0 {
		if err := writeI64s(bw, scratch, offsets); err != nil {
			return err
		}
	}
	if err := writeI32s(bw, scratch, targets); err != nil {
		return err
	}
	if weights != nil {
		if err := writeF32s(bw, scratch, weights); err != nil {
			return err
		}
	}
	if times != nil {
		if err := writeI64s(bw, scratch, times); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

func writeI64s(w io.Writer, scratch []byte, vals []int64) error {
	per := len(scratch) / 8
	for at := 0; at < len(vals); at += per {
		end := at + per
		if end > len(vals) {
			end = len(vals)
		}
		b := scratch[:(end-at)*8]
		for i, v := range vals[at:end] {
			binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func writeI32s(w io.Writer, scratch []byte, vals []int32) error {
	per := len(scratch) / 4
	for at := 0; at < len(vals); at += per {
		end := at + per
		if end > len(vals) {
			end = len(vals)
		}
		b := scratch[:(end-at)*4]
		for i, v := range vals[at:end] {
			binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func writeF32s(w io.Writer, scratch []byte, vals []float32) error {
	per := len(scratch) / 4
	for at := 0; at < len(vals); at += per {
		end := at + per
		if end > len(vals) {
			end = len(vals)
		}
		b := scratch[:(end-at)*4]
		for i, v := range vals[at:end] {
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Read deserializes a flat snapshot from r. size is the total byte length
// when known (pass the file's Stat size): the header's implied size is
// checked against it before any array allocation, and each array is then
// allocated once at its exact length. With size -1 (unknown) the arrays
// start at one chunk and grow only as bytes actually arrive. Reads are
// chunk-sized, so r needs no buffering.
func Read(r io.Reader, size int64) (*graph.Graph, error) {
	crc := crc32.New(castagnoli)
	tr := io.TeeReader(r, crc)

	var hdr [headerSize]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, corruptEOF(err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return nil, corruptf("bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		return nil, corruptf("unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:])
	if flags&^(flagDirected|flagWeights|flagTimes) != 0 {
		return nil, corruptf("unknown flags %#x", flags)
	}
	rawN := binary.LittleEndian.Uint32(hdr[8:])
	if rawN > math.MaxInt32 {
		return nil, corruptf("vertex count %d overflows int32", rawN)
	}
	n := int32(rawN)
	rawM := binary.LittleEndian.Uint64(hdr[12:])
	// 20 bytes per arc is the widest possible row (targets+weights+times);
	// anything larger than maxInt arcs cannot be a real file.
	if rawM > uint64(math.MaxInt)/20 {
		return nil, corruptf("arc count %d implausible", rawM)
	}
	m := int(rawM)
	if n == 0 && m != 0 {
		return nil, corruptf("%d arcs with 0 vertices", m)
	}

	var body int64
	if n > 0 {
		body += 8 * (int64(n) + 1)
	}
	body += 4 * int64(m)
	if flags&flagWeights != 0 {
		body += 4 * int64(m)
	}
	if flags&flagTimes != 0 {
		body += 8 * int64(m)
	}
	if size >= 0 && size != headerSize+body+trailerSize {
		return nil, corruptf("file is %d bytes, header implies %d", size, headerSize+body+trailerSize)
	}

	scratch := make([]byte, chunkBytes)
	exact := size >= 0 // the counts are backed by bytes the caller vouches for
	var offsets []int64
	var err error
	if n > 0 {
		if offsets, err = readI64s(tr, scratch, int(n)+1, exact); err != nil {
			return nil, err
		}
	}
	targets, err := readI32s(tr, scratch, m, exact)
	if err != nil {
		return nil, err
	}
	var weights []float32
	if flags&flagWeights != 0 {
		if weights, err = readF32s(tr, scratch, m, exact); err != nil {
			return nil, err
		}
	}
	var times []int64
	if flags&flagTimes != 0 {
		if times, err = readI64s(tr, scratch, m, exact); err != nil {
			return nil, err
		}
	}

	want := crc.Sum32()
	var trailer [trailerSize]byte
	if _, err := io.ReadFull(tr, trailer[:]); err != nil {
		return nil, corruptEOF(err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, corruptf("checksum %#x != computed %#x", got, want)
	}

	g, err := graph.FromCSRArrays(n, flags&flagDirected != 0, offsets, targets, weights, times)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	// Per-arc invariants FromCSRArrays leaves to the caller: every target in
	// range, no self-loop (graphd never writes one, and the dynamic graph
	// would drop it at the first version bump, changing answers with no
	// edit), every row strictly increasing (sorted rows are what the query
	// kernels' binary searches and FromCSRGraph's no-duplicate bulk load
	// assume). One O(m) pass.
	for v := int32(0); v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		for i, w := range row {
			if w < 0 || w >= n {
				return nil, corruptf("vertex %d: target %d out of range [0,%d)", v, w, n)
			}
			if w == v {
				return nil, corruptf("vertex %d: self-loop", v)
			}
			if i > 0 && row[i-1] >= w {
				return nil, corruptf("vertex %d: row not strictly increasing at %d", v, i)
			}
		}
	}
	return g, nil
}

func readI64s(r io.Reader, scratch []byte, count int, exact bool) ([]int64, error) {
	per := len(scratch) / 8
	out := make([]int64, 0, firstCap(count, per, exact))
	for len(out) < count {
		elems := minInt(count-len(out), per)
		b := scratch[:elems*8]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, corruptEOF(err)
		}
		for i := 0; i < elems; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(b[i*8:])))
		}
	}
	return out, nil
}

func readI32s(r io.Reader, scratch []byte, count int, exact bool) ([]int32, error) {
	per := len(scratch) / 4
	out := make([]int32, 0, firstCap(count, per, exact))
	for len(out) < count {
		elems := minInt(count-len(out), per)
		b := scratch[:elems*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, corruptEOF(err)
		}
		for i := 0; i < elems; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i*4:])))
		}
	}
	return out, nil
}

func readF32s(r io.Reader, scratch []byte, count int, exact bool) ([]float32, error) {
	per := len(scratch) / 4
	out := make([]float32, 0, firstCap(count, per, exact))
	for len(out) < count {
		elems := minInt(count-len(out), per)
		b := scratch[:elems*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, corruptEOF(err)
		}
		for i := 0; i < elems; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		}
	}
	return out, nil
}

// firstCap is the capacity an array of count elements starts with: all of
// it when the count is exact, else one chunk's worth, so allocation stays
// bounded by bytes received.
func firstCap(count, per int, exact bool) int {
	if exact {
		return count
	}
	return minInt(count, per)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ReadFile opens and deserializes a flat snapshot, using the file's size for
// up-front validation.
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Read(f, st.Size())
}

// SniffFile reports whether the file at path begins with the flat-format
// magic — how recovery tells a flat snapshot from a file in any other
// format, which it refuses.
func SniffFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var b [4]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false, nil // too short to be flat
	}
	return binary.LittleEndian.Uint32(b[:]) == Magic, nil
}
