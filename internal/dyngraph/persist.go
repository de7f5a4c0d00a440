package dyngraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary persistence for the dynamic graph, because the paper's persistent
// graphs outlive any single analytic ("these graphs are persistent; their
// existence is independent of any single analytic"). The format is a
// little-endian stream: magic, version, flags, vertex count, edge count,
// then (src,dst,weight,time) per stored arc with undirected arcs written
// once. graphd persisted it before the flat format (internal/wire/snapfmt);
// it is read now only to convert old snapshots (wirecli convert-snapshot).

const (
	persistMagic   = 0x47525048 // "GRPH"
	persistVersion = 1
)

// Save writes the graph to w.
func (g *DynGraph) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{persistMagic, persistVersion, 0, uint32(g.NumVertices())}
	if g.directed {
		hdr[2] = 1
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.NumEdges()); err != nil {
		return err
	}
	var werr error
	for v := int32(0); v < g.NumVertices() && werr == nil; v++ {
		g.ForEachNeighbor(v, func(dst int32, weight float32, tm int64) {
			if werr != nil {
				return
			}
			if !g.directed && dst < v {
				return // undirected arcs written once
			}
			rec := struct {
				Src, Dst int32
				Weight   float32
				Time     int64
			}{v, dst, weight, tm}
			werr = binary.Write(bw, binary.LittleEndian, rec)
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Load reads a graph previously written by Save. The header's record count
// is a floor: it is NumEdges, which counts an undirected self-loop (one
// arc, one record) as half an edge, so a file with self-loops holds whole
// records past the count, and those are read too.
func Load(r io.Reader) (*DynGraph, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("dyngraph: header: %w", err)
		}
	}
	if hdr[0] != persistMagic {
		return nil, fmt.Errorf("dyngraph: bad magic %#x", hdr[0])
	}
	if hdr[1] != persistVersion {
		return nil, fmt.Errorf("dyngraph: unsupported version %d", hdr[1])
	}
	directed := hdr[2] == 1
	n := int32(hdr[3])
	if n < 0 {
		return nil, fmt.Errorf("dyngraph: vertex count %d out of range", hdr[3])
	}
	var edges int64
	if err := binary.Read(br, binary.LittleEndian, &edges); err != nil {
		return nil, fmt.Errorf("dyngraph: edge count: %w", err)
	}
	// Save writes each stored arc once (undirected: each edge once), so no
	// valid file holds more records than there are ordered vertex pairs.
	if edges < 0 || edges > int64(n)*int64(n) {
		return nil, fmt.Errorf("dyngraph: edge count %d out of range for %d vertices", edges, n)
	}
	g := New(n, directed)
	for i := int64(0); ; i++ {
		var rec struct {
			Src, Dst int32
			Weight   float32
			Time     int64
		}
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			if err == io.EOF && i >= edges {
				break
			}
			return nil, fmt.Errorf("dyngraph: edge %d: %w", i, err)
		}
		if rec.Src < 0 || rec.Src >= n || rec.Dst < 0 || rec.Dst >= n {
			return nil, fmt.Errorf("dyngraph: edge %d out of range", i)
		}
		g.InsertEdge(rec.Src, rec.Dst, rec.Weight, rec.Time)
	}
	return g, nil
}
