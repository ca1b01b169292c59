package adserver

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/verticals"
)

// caseVariant spells phrase with the letters selected by the bits of i in
// upper case. Every variant resolves to the same keyword but is a distinct
// query text, so each rolls its own click stream.
func caseVariant(phrase string, i int) string {
	var b strings.Builder
	bit := 0
	for _, r := range phrase {
		if r >= 'a' && r <= 'z' {
			if i>>bit&1 == 1 {
				r -= 'a' - 'A'
			}
			bit++
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestServedClickRatesFollowClickModel: the clicks the HTTP front end
// reports come from the simulator's position-biased click model, not a
// model of its own. Over many distinct queries for one keyword, the
// position-1 mainline ad's served click rate must match the model's
// ClickProbability for that placement.
func TestServedClickRatesFollowClickModel(t *testing.T) {
	s, gen := serverFixture(t)
	kw := gen.UniverseFor(verticals.Downloads).Keywords[0]

	elig := s.p.Index().Sublists(verticals.Downloads, market.US).
		EligibleAppendLive(nil, kw.ID, kw.Cluster, platform.FormBare, s.p.LiveSet())
	top := auction.Run(auction.DefaultConfig(), elig, platform.FormBare).Placements[0]
	if top.Position != 1 || !top.Mainline {
		t.Fatalf("fixture's top placement is not mainline position 1: %+v", top)
	}
	want := clicks.DefaultModel().ClickProbability(top)

	const n = 4000
	clicked := 0
	for i := 0; i < n; i++ {
		path := "/search?q=" + url.QueryEscape(caseVariant(kw.Phrase, i)) + "&country=US"
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var resp SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Form != "bare" || len(resp.Ads) == 0 {
			t.Fatalf("query %q: form %q, %d ads", path, resp.Form, len(resp.Ads))
		}
		ad := resp.Ads[0]
		if ad.Position != 1 || !ad.Mainline || ad.Advertiser != int32(top.Ref.Ad.Account) {
			t.Fatalf("query %q: top ad %+v, want account %d at mainline position 1", path, ad, top.Ref.Ad.Account)
		}
		if ad.Clicked {
			clicked++
		}
	}
	got := float64(clicked) / n
	tol := 4 * math.Sqrt(want*(1-want)/n)
	if math.Abs(got-want) > tol {
		t.Fatalf("position-1 served click rate %.4f, click model says %.4f (±%.4f)", got, want, tol)
	}
}
