package serving

import (
	"reflect"
	"testing"

	"repro/internal/adcopy"
	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// fixture builds a platform with six active advertisers bidding on
// keyword 3 (cluster 1) of the games vertical, across all match types,
// so a bare query fills the mainline and spills into the sidebar.
func fixture(t *testing.T) *Engine {
	t.Helper()
	p := platform.New()
	for i := 0; i < 6; i++ {
		a := p.Register(platform.RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		ad, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.3+0.1*float64(i), simclock.StampAt(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		bid := platform.KeywordBid{KeywordID: 3, Cluster: 1, Match: platform.MatchTypes[i%3], MaxBid: 1 + 0.2*float64(i)}
		if err := p.AddBid(ad, bid, 0); err != nil {
			t.Fatal(err)
		}
	}
	return &Engine{P: p, Auction: auction.DefaultConfig(), Model: clicks.DefaultModel()}
}

func (e *Engine) fill(pg *Page, kw, cl int, form platform.QueryForm, scr *Scratch) {
	e.Fill(pg, e.P.Index().Sublists(verticals.Games, market.US), kw, cl, form, e.P.LiveSet(), scr)
}

// TestFillMatchesAuctionAndModel: a page is the auction over the live
// eligible bids, with the click model's probability, the owning account
// and the draw count of every placement.
func TestFillMatchesAuctionAndModel(t *testing.T) {
	e := fixture(t)
	var pg Page
	var scr Scratch
	e.fill(&pg, 3, 1, platform.FormBare, &scr)

	elig := e.P.Index().Sublists(verticals.Games, market.US).EligibleAppendLive(nil, 3, 1, platform.FormBare, e.P.LiveSet())
	want := auction.Run(e.Auction, elig, platform.FormBare).Placements
	if len(want) < 2 || !reflect.DeepEqual(pg.Placements, want) {
		t.Fatalf("placements differ from the auction:\n got %+v\nwant %+v", pg.Placements, want)
	}
	var draws int32
	for i, pl := range want {
		cp := e.Model.ClickProbability(pl)
		if pg.CPs[i] != cp {
			t.Fatalf("placement %d: probability %v, model says %v", i, pg.CPs[i], cp)
		}
		if pg.Accts[i] != e.P.MustAccount(pl.Ref.Ad.Account) {
			t.Fatalf("placement %d: wrong account", i)
		}
		if cp > 0 && cp < 1 {
			draws++
		}
	}
	if pg.Draws != draws {
		t.Fatalf("draws %d, want %d", pg.Draws, draws)
	}

	// Refilling the same page for a query with no eligible bids empties it.
	e.fill(&pg, 9, 2, platform.FormBare, &scr)
	if len(pg.Placements) != 0 || len(pg.CPs) != 0 || len(pg.Accts) != 0 || pg.Draws != 0 {
		t.Fatalf("empty refill left %+v", pg)
	}
}

// TestRollClicksMatchesSimulate: rolling a page draws exactly as the
// click model's own SimulateInto does over the same placements — same
// clicked indices, same stream position — and consumes Draws draws, the
// count the simulator splits its click stream by.
func TestRollClicksMatchesSimulate(t *testing.T) {
	e := fixture(t)
	var pg Page
	var scr Scratch
	e.fill(&pg, 3, 1, platform.FormBare, &scr)

	rolled, simulated, skipped := stats.NewRNG(5), stats.NewRNG(5), stats.NewRNG(5)
	var buf []int
	for round := 0; round < 200; round++ {
		buf = pg.RollClicks(rolled, buf)
		want := e.Model.SimulateInto(simulated, pg.Placements, nil)
		if len(buf) != len(want) || (len(want) > 0 && !reflect.DeepEqual(buf, want)) {
			t.Fatalf("round %d: rolled %v, SimulateInto %v", round, buf, want)
		}
		stats.SubStreams(skipped, []int32{pg.Draws}, nil)
		if rolled.State() != simulated.State() || rolled.State() != skipped.State() {
			t.Fatalf("round %d: streams diverged after one page", round)
		}
	}
}

// TestFillAllocationFree pins the page path at zero steady-state
// allocations once a page and its scratch have warmed up.
func TestFillAllocationFree(t *testing.T) {
	e := fixture(t)
	var pg Page
	var scr Scratch
	sl := e.P.Index().Sublists(verticals.Games, market.US)
	live := e.P.LiveSet()
	rng := stats.NewRNG(1)
	var buf []int
	avg := testing.AllocsPerRun(100, func() {
		e.Fill(&pg, sl, 3, 1, platform.FormBare, live, &scr)
		buf = pg.RollClicks(rng, buf)
	})
	if avg != 0 {
		t.Fatalf("Fill+RollClicks allocate %.2f objects/op steady-state, want 0", avg)
	}
}
