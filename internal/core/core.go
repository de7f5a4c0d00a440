// Package core is the library's umbrella API: it encodes the paper's Fig. 1
// taxonomy of graph kernels (kernel classes, which benchmark suites use
// each kernel in batch or streaming mode, and output classes) and provides
// a runnable registry binding every taxonomy row to this repository's
// implementation, so the whole spectrum can be executed and the coverage
// matrix regenerated.
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Class is a kernel's broad category (the first column group of Fig. 1).
type Class int

// Kernel classes.
const (
	Connectedness Class = iota
	PathAnalysis
	Centrality
	Clustering
	SubgraphIso
	Other
)

func (c Class) String() string {
	switch c {
	case Connectedness:
		return "connectedness"
	case PathAnalysis:
		return "path"
	case Centrality:
		return "centrality"
	case Clustering:
		return "clustering"
	case SubgraphIso:
		return "subgraph-iso"
	default:
		return "other"
	}
}

// Mode is how a benchmark suite uses a kernel.
type Mode int

// Usage modes.
const (
	Unused Mode = iota
	Batch
	Streaming
	BatchAndStreaming
)

func (m Mode) String() string {
	switch m {
	case Batch:
		return "B"
	case Streaming:
		return "S"
	case BatchAndStreaming:
		return "B/S"
	}
	return ""
}

// Suite identifies a benchmarking effort (the middle column group).
type Suite string

// The benchmark suites of Fig. 1.
const (
	Standalone     Suite = "Standalone"
	Firehose       Suite = "Firehose"
	Graph500       Suite = "Graph500"
	GraphBLAS      Suite = "GraphBLAS"
	GraphChallenge Suite = "GraphChallenge"
	GAP            Suite = "GraphAlgPlatform"
	HPCGraph       Suite = "HPCGraphAnalysis"
	KeplerGilbert  Suite = "Kepler&Gilbert"
	Stinger        Suite = "Stinger"
	VAST           Suite = "VAST"
)

// Suites lists all suites in Fig. 1 column order.
var Suites = []Suite{
	Standalone, Firehose, Graph500, GraphBLAS, GraphChallenge,
	GAP, HPCGraph, KeplerGilbert, Stinger, VAST,
}

// Output is a kernel's output class (the right column group of Fig. 1).
type Output int

// Output classes.
const (
	GraphModification Output = iota
	VertexProperty
	GlobalValue
	EventsO1
	ListOV
	ListOVk
)

func (o Output) String() string {
	switch o {
	case GraphModification:
		return "graph-mod"
	case VertexProperty:
		return "vertex-prop"
	case GlobalValue:
		return "global-value"
	case EventsO1:
		return "O(1)-events"
	case ListOV:
		return "O(|V|)-list"
	default:
		return "O(|V|^k)-list"
	}
}

// KernelInfo is one row of Fig. 1.
type KernelInfo struct {
	Name    string
	Classes []Class
	Usage   map[Suite]Mode
	Outputs []Output
	// Implementation points at this repository's function(s) for the row.
	Implementation string
}

// Taxonomy reproduces Fig. 1 row by row.
var Taxonomy = []KernelInfo{
	{Name: "Anomaly-FixedKey", Classes: []Class{Other},
		Usage:          map[Suite]Mode{Standalone: Streaming},
		Outputs:        []Output{VertexProperty},
		Implementation: "streaming.FixedKeyAnomaly"},
	{Name: "Anomaly-UnboundedKey", Classes: []Class{Other},
		Usage:          map[Suite]Mode{Standalone: Streaming},
		Outputs:        []Output{VertexProperty},
		Implementation: "streaming.UnboundedKeyAnomaly"},
	{Name: "Anomaly-TwoLevelKey", Classes: []Class{Other},
		Usage:          map[Suite]Mode{Standalone: Streaming},
		Outputs:        []Output{GlobalValue},
		Implementation: "streaming.TwoLevelAnomaly"},
	{Name: "BC", Classes: []Class{Centrality},
		Usage:          map[Suite]Mode{Graph500: Batch, GraphChallenge: Batch, HPCGraph: Batch, KeplerGilbert: Streaming},
		Outputs:        []Output{VertexProperty},
		Implementation: "kernels.BetweennessCentrality, kernels.ApproxBetweenness"},
	{Name: "BFS", Classes: []Class{Connectedness},
		Usage: map[Suite]Mode{Graph500: Batch, GraphBLAS: Batch, GraphChallenge: Batch,
			GAP: Batch, HPCGraph: Batch, KeplerGilbert: Batch},
		Outputs:        []Output{VertexProperty, EventsO1},
		Implementation: "kernels.BFS, kernels.BFSParallel, matrix.BFSLevels"},
	{Name: "SearchLargest", Classes: []Class{Other},
		Usage:          map[Suite]Mode{GraphChallenge: Batch},
		Outputs:        []Output{EventsO1},
		Implementation: "kernels.TopKByDegree, kernels.LargestComponent"},
	{Name: "CCW", Classes: []Class{Connectedness},
		Usage:          map[Suite]Mode{GAP: Batch, HPCGraph: Batch, KeplerGilbert: Streaming},
		Outputs:        []Output{VertexProperty, EventsO1},
		Implementation: "kernels.WCC, incr.WCCState"},
	{Name: "CCS", Classes: []Class{Connectedness},
		Usage:          map[Suite]Mode{GAP: Batch, HPCGraph: Batch},
		Outputs:        []Output{EventsO1},
		Implementation: "kernels.SCC, kernels.SCCKosaraju"},
	{Name: "CCO", Classes: []Class{Centrality},
		Usage:          map[Suite]Mode{HPCGraph: Batch, KeplerGilbert: Streaming},
		Outputs:        []Output{VertexProperty},
		Implementation: "kernels.ClusteringCoefficients"},
	{Name: "CD", Classes: []Class{Connectedness, PathAnalysis},
		Usage:          map[Suite]Mode{HPCGraph: Streaming},
		Outputs:        []Output{VertexProperty, EventsO1},
		Implementation: "kernels.LabelPropagation"},
	{Name: "GC", Classes: []Class{PathAnalysis},
		Usage:          map[Suite]Mode{GraphChallenge: Batch, GAP: Batch},
		Outputs:        []Output{GlobalValue},
		Implementation: "kernels.Contract"},
	{Name: "GP", Classes: []Class{PathAnalysis},
		Usage:          map[Suite]Mode{GraphBLAS: BatchAndStreaming, GAP: Batch},
		Outputs:        []Output{GlobalValue},
		Implementation: "kernels.Partition"},
	{Name: "GTC", Classes: []Class{PathAnalysis},
		Usage:          map[Suite]Mode{GraphChallenge: Batch},
		Outputs:        []Output{GlobalValue},
		Implementation: "kernels.GlobalTriangleCount, matrix.TriangleCountLA, streaming.TriangleCounter"},
	{Name: "InsertDelete", Classes: []Class{Centrality},
		Usage:          map[Suite]Mode{HPCGraph: Streaming},
		Outputs:        []Output{GraphModification},
		Implementation: "dyngraph.InsertEdge/DeleteEdge"},
	{Name: "Jaccard", Classes: []Class{PathAnalysis, Other},
		Usage:          map[Suite]Mode{Standalone: BatchAndStreaming},
		Outputs:        []Output{ListOV},
		Implementation: "kernels.JaccardAll, streaming.StreamingJaccard, nora.Boil"},
	{Name: "MIS", Classes: []Class{Other},
		Usage:          map[Suite]Mode{Firehose: Batch, GraphChallenge: Batch},
		Outputs:        []Output{ListOV},
		Implementation: "kernels.MISLuby, kernels.MISGreedy"},
	{Name: "PR", Classes: []Class{Connectedness},
		Usage:          map[Suite]Mode{GraphChallenge: Batch},
		Outputs:        []Output{VertexProperty},
		Implementation: "kernels.PageRank, kernels.PageRankPush, matrix.PageRankLA"},
	{Name: "SSSP", Classes: []Class{Connectedness},
		Usage:          map[Suite]Mode{Firehose: Batch, GraphChallenge: BatchAndStreaming, GAP: Batch},
		Outputs:        []Output{VertexProperty, EventsO1},
		Implementation: "kernels.Dijkstra, kernels.DeltaStepping, kernels.BellmanFord"},
	{Name: "APSP", Classes: []Class{Connectedness},
		Usage:          map[Suite]Mode{GAP: Batch},
		Outputs:        []Output{ListOV},
		Implementation: "kernels.APSP, kernels.FloydWarshall"},
	{Name: "SI", Classes: []Class{PathAnalysis},
		Usage:          map[Suite]Mode{Graph500: BatchAndStreaming},
		Outputs:        []Output{ListOVk},
		Implementation: "kernels.SubgraphIsomorphism"},
	{Name: "TL", Classes: []Class{PathAnalysis},
		Usage:          map[Suite]Mode{Graph500: BatchAndStreaming},
		Outputs:        []Output{ListOV, ListOVk},
		Implementation: "kernels.TriangleList"},
	{Name: "GeoTemporal", Classes: []Class{Clustering},
		Usage:          map[Suite]Mode{KeplerGilbert: BatchAndStreaming},
		Outputs:        []Output{EventsO1},
		Implementation: "kernels.TemporallyCorrelated, kernels.TemporalReachable, streaming.Engine triggers"},
}

// KernelByName returns the taxonomy row with the given name.
func KernelByName(name string) (KernelInfo, bool) {
	for _, k := range Taxonomy {
		if k.Name == name {
			return k, true
		}
	}
	return KernelInfo{}, false
}

// RenderCoverage writes the Fig. 1-style coverage matrix: rows are kernels,
// columns the benchmark suites, cells the usage mode.
func RenderCoverage(w io.Writer) {
	fmt.Fprintf(w, "%-22s %-14s", "kernel", "classes")
	for _, s := range Suites {
		fmt.Fprintf(w, " %-9s", abbrev(string(s)))
	}
	fmt.Fprintf(w, " %s\n", "outputs")
	for _, k := range Taxonomy {
		classes := make([]string, len(k.Classes))
		for i, c := range k.Classes {
			classes[i] = c.String()
		}
		fmt.Fprintf(w, "%-22s %-14s", k.Name, strings.Join(classes, ","))
		for _, s := range Suites {
			fmt.Fprintf(w, " %-9s", k.Usage[s].String())
		}
		outs := make([]string, len(k.Outputs))
		for i, o := range k.Outputs {
			outs[i] = o.String()
		}
		fmt.Fprintf(w, " %s\n", strings.Join(outs, ","))
	}
}

func abbrev(s string) string {
	if len(s) > 9 {
		return s[:9]
	}
	return s
}

// SuiteKernels returns the kernels a suite uses, sorted by name.
func SuiteKernels(s Suite) []KernelInfo {
	var out []KernelInfo
	for _, k := range Taxonomy {
		if k.Usage[s] != Unused {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StreamingKernels returns all kernels any suite uses in streaming mode.
func StreamingKernels() []KernelInfo {
	var out []KernelInfo
	for _, k := range Taxonomy {
		for _, m := range k.Usage {
			if m == Streaming || m == BatchAndStreaming {
				out = append(out, k)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
