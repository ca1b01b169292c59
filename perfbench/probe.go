package main

import (
	"time"

	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/stats"
)

// probeQueries is the size of the serving probe's query stream, and
// probeRounds how many times each stage runs over it (the median counts).
const (
	probeQueries = 30000
	probeRounds  = 3
	probeSalt    = 0x9e3779b97f4a7c15
)

// servingProbe times the simulator's serving stages one at a time on the
// final platform of a traced repro run: eligibility (Index.Sublists +
// Sublists.EligibleAppendLive over Platform.LiveSet), the auction
// (auction.RunInto) and the click rolls (clicks.Model.SimulateInto). The
// query stream comes from a queries.Generator seeded by the benchmark;
// keyword universes are built without randomness, so its keyword IDs
// are the sim's. Each stage runs over the whole stream before the next,
// so each is timed as one batch rather than per ~100 ns call.
func servingProbe(p *platform.Platform, cfg sim.Config, seed uint64, tr *tracer, m map[string]float64) {
	gen := queries.NewGenerator(stats.NewRNG(seed ^ probeSalt))
	qs := make([]queries.Query, probeQueries)
	for i := range qs {
		qs[i] = gen.Next()
	}
	idx, live := p.Index(), p.LiveSet()
	model := clicks.DefaultModel()

	var (
		cands   []platform.BidRef
		candOff = make([]int, len(qs)+1)
		pages   []auction.Placement
		pageOff = make([]int, len(qs)+1)
		scr     auction.Scratch
		clicked []int
		filled  int
		elig    = make([]float64, 0, probeRounds)
		auct    = make([]float64, 0, probeRounds)
		click   = make([]float64, 0, probeRounds)
	)
	for round := 0; round < probeRounds; round++ {
		sp := tr.begin("probe.round", int64(round), -1)

		t0 := time.Now()
		cands = cands[:0]
		for i := range qs {
			q := &qs[i]
			cands = idx.Sublists(q.Vertical, q.Country).EligibleAppendLive(cands, q.KeywordID, q.Cluster, q.Form, live)
			candOff[i+1] = len(cands)
		}
		t1 := time.Now()
		tr.record("platform.eligible", int64(round), sp, t0, t1)

		pages, filled = pages[:0], 0
		for i := range qs {
			res := auction.RunInto(cfg.Auction, cands[candOff[i]:candOff[i+1]], qs[i].Form, &scr)
			pages = append(pages, res.Placements...)
			pageOff[i+1] = len(pages)
			if len(res.Placements) > 0 {
				filled++
			}
		}
		t2 := time.Now()
		tr.record("auction.run", int64(round), sp, t1, t2)

		rng := stats.NewRNG(seed)
		for i := range qs {
			if pageOff[i+1] > pageOff[i] {
				clicked = model.SimulateInto(rng, pages[pageOff[i]:pageOff[i+1]], clicked)
			}
		}
		t3 := time.Now()
		tr.record("clicks.simulate", int64(round), sp, t2, t3)
		tr.end(sp)

		elig = append(elig, float64(t1.Sub(t0)))
		auct = append(auct, float64(t2.Sub(t1)))
		click = append(click, float64(t3.Sub(t2)))
	}

	n := float64(len(qs))
	m["platform.eligible_ns_per_query"] = median(elig) / n
	m["platform.candidates_per_query"] = float64(len(cands)) / n
	m["auction.ns_per_auction"] = median(auct) / n
	m["auction.fill_share"] = float64(filled) / n
	m["clicks.ns_per_page"] = ratio(median(click), float64(filled))
}
