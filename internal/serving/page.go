// Package serving is the one page path shared by the simulator's day
// loop and the HTTP adserver: a query's eligible bids (posting-list scan
// over the platform's LiveSet bitmap), the auction, each placement's
// position-biased click probability (clicks.Model) and owning account,
// and the click rolls over those probabilities.
//
// "the mainline traditionally receiv[es] more clicks than the sidebar"
// (§6.2.1): both front ends roll clicks from the same model, so the
// click-through rates the HTTP server reports are the ones the simulated
// datasets are built from.
package serving

import (
	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Engine binds the page path to a platform, an auction configuration and
// a click model. It holds no mutable state; one Engine serves any number
// of goroutines, each with its own Scratch.
type Engine struct {
	P       *platform.Platform
	Auction auction.Config
	Model   *clicks.Model
}

// Page is one query's resolved auction outcome: the placements, each
// placement's click probability and owning account (fraud-presence loops
// read the flag straight off the pointer), and how many click-RNG draws
// rolling the page consumes — one per probability strictly inside (0,1),
// exactly what RollClicks draws.
type Page struct {
	Placements []auction.Placement
	CPs        []float64
	Accts      []*platform.Account
	Draws      int32
}

// Scratch is one goroutine's reusable eligibility and auction buffers.
type Scratch struct {
	elig []platform.BidRef
	auc  auction.Scratch
}

// Fill resets pg and resolves into it the page for a query on keyword kw
// (cluster cl) with the given form. sl is the query's (vertical, country)
// posting-list handle and live the stamped account-liveness bitmap
// (platform.LiveSet); both must belong to e.P's current index epoch.
// pg keeps its backing storage across calls, so a recycled page fills
// without allocating.
func (e *Engine) Fill(pg *Page, sl platform.Sublists, kw, cl int, form platform.QueryForm, live []bool, scr *Scratch) {
	pg.Placements = pg.Placements[:0]
	pg.CPs = pg.CPs[:0]
	pg.Accts = pg.Accts[:0]
	pg.Draws = 0
	scr.elig = sl.EligibleAppendLive(scr.elig[:0], kw, cl, form, live)
	if len(scr.elig) == 0 {
		return
	}
	res := auction.RunInto(e.Auction, scr.elig, form, &scr.auc)
	pg.Placements = append(pg.Placements, res.Placements...)
	for i := range pg.Placements {
		pl := &pg.Placements[i]
		cp := e.Model.ClickProbability(*pl)
		pg.CPs = append(pg.CPs, cp)
		pg.Accts = append(pg.Accts, e.P.MustAccount(pl.Ref.Ad.Account))
		if cp > 0 && cp < 1 {
			pg.Draws++
		}
	}
}

// RollClicks rolls the page's clicks from rng and returns the clicked
// placement indices in position order, appended to buf[:0]. It draws
// exactly as clicks.Model.SimulateInto would over the same placements,
// without recomputing the probabilities, and consumes pg.Draws draws.
func (pg *Page) RollClicks(rng *stats.RNG, buf []int) []int {
	buf = buf[:0]
	for i, cp := range pg.CPs {
		if rng.Bool(cp) {
			buf = append(buf, i)
		}
	}
	return buf
}
