// Streaming NORA example: the paper's real-time variant of the insurance
// application. Records arrive one at a time; in-line deduplication resolves
// each to an entity immediately; the person–address edge feeds the
// persistent dynamic graph; and a Jaccard watcher checks whether the update
// "is likely to change any of the key relationships" — only threshold
// crossings trigger the heavier analytic, exactly the escalation pattern of
// Fig. 2's left-hand side. A second query stream serves applicant lookups
// against the live graph throughout.
package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/dedup"
	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/streaming"
)

func main() {
	p := gen.DefaultNORAParams()
	p.NumPeople = 8000
	p.NumAddresses = 3000
	records := gen.GenerateNORARecords(p)
	fmt.Printf("streaming %d records through in-line dedup...\n", len(records))

	// Persistent graph: person entities get IDs as they appear; addresses
	// occupy a fixed range after the entity space.
	maxEntities := int32(len(records))
	g := dyngraph.New(maxEntities+p.NumAddresses, false)
	sj := streaming.NewStreamingJaccard(g)
	inline := dedup.NewInline()

	const watchThreshold = 0.8
	crossings := 0
	var updLat []time.Duration
	start := time.Now()
	for i, r := range records {
		t0 := time.Now()
		eid, _ := inline.Ingest(r)
		addrVertex := maxEntities + r.AddressID
		// New or refreshed residence edge; then check whether this update
		// pushed any relationship of the entity past the watch threshold.
		best, ok := sj.ApplyUpdate(dyngraph.Edit{Src: eid, Dst: addrVertex, Time: int64(i)})
		if ok && best.Score >= watchThreshold && best.Inter >= 2 {
			crossings++
			if crossings <= 5 {
				fmt.Printf("  escalation at record %d: entities %d~%d share %d addrs (J=%.2f)\n",
					i, best.U, best.V, best.Inter, best.Score)
			}
		}
		updLat = append(updLat, time.Since(t0))
	}
	elapsed := time.Since(start)
	fmt.Printf("\ningested %d records in %v (%s)\n", len(records), elapsed,
		bench.Rate(int64(len(records)), elapsed))
	fmt.Printf("entities resolved: %d (true people %d); threshold crossings: %d\n",
		len(inline.Entities()), p.NumPeople, crossings)
	ls := bench.Latencies(updLat)
	fmt.Printf("per-record latency: %v\n", ls)

	// Real-time applicant queries against the live graph.
	queries := gen.QueryStream(2000, int32(len(inline.Entities())), 7)
	var hits int
	start = time.Now()
	for _, q := range queries {
		for _, rres := range sj.Query(q, 0) {
			if rres.Inter >= 2 && rres.V < maxEntities {
				hits++
				break
			}
		}
	}
	qel := time.Since(start)
	fmt.Printf("live queries: %d in %v (%.1f us/query), %d applicants with relationships\n",
		len(queries), qel, float64(qel.Microseconds())/float64(len(queries)), hits)
}
