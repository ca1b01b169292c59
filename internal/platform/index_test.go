package platform

import (
	"testing"
	"testing/quick"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// indexFixture builds a platform with one account and one ad carrying an
// exact, a phrase and a broad bid on keyword 3 (cluster 1).
func indexFixture(t *testing.T) (*Platform, *Account) {
	t.Helper()
	p := New()
	a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
	if err := p.Approve(a.ID); err != nil {
		t.Fatal(err)
	}
	ad, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, simclock.StampAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range MatchTypes {
		if err := p.AddBid(ad, KeywordBid{KeywordID: 3, Cluster: 1, Match: m, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return p, a
}

func TestMatchesSemantics(t *testing.T) {
	// Exact: same keyword, bare form only.
	if !Matches(MatchExact, 3, 3, true, FormBare) {
		t.Fatal("exact/bare")
	}
	if Matches(MatchExact, 3, 3, true, FormExtended) {
		t.Fatal("exact must reject extended form")
	}
	if Matches(MatchExact, 3, 4, true, FormBare) {
		t.Fatal("exact must reject other keywords")
	}
	// Phrase: same keyword, bare or extended.
	if !Matches(MatchPhrase, 3, 3, true, FormExtended) {
		t.Fatal("phrase/extended")
	}
	if Matches(MatchPhrase, 3, 3, true, FormReordered) {
		t.Fatal("phrase must reject reordered form")
	}
	// Broad: any same-cluster keyword, any form.
	if !Matches(MatchBroad, 3, 99, true, FormReordered) {
		t.Fatal("broad/same-cluster")
	}
	if Matches(MatchBroad, 3, 99, false, FormBare) {
		t.Fatal("broad must reject other clusters")
	}
}

func TestMatchesHierarchyProperty(t *testing.T) {
	// Whenever exact matches, phrase must match; whenever phrase matches
	// (same cluster), broad must match.
	f := func(bidKw, queryKw uint8, form8 uint8) bool {
		form := QueryForm(form8 % 3)
		same := bidKw/8 == queryKw/8 // synthetic cluster
		e := Matches(MatchExact, int(bidKw), int(queryKw), same, form)
		ph := Matches(MatchPhrase, int(bidKw), int(queryKw), same, form)
		br := Matches(MatchBroad, int(bidKw), int(queryKw), same, form)
		if e && !ph {
			return false
		}
		if bidKw == queryKw && !same {
			return true // impossible cluster assignment; skip
		}
		if ph && !br {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// eligible runs the serving lookup: resolve the (vertical, market)
// sublists and filter them against the stamped liveness bitmap.
func eligible(p *Platform, v verticals.Vertical, c market.Country, kw, cl int, form QueryForm) []BidRef {
	return p.Index().Sublists(v, c).EligibleAppendLive(nil, kw, cl, form, p.LiveSet())
}

func TestEligibleByForm(t *testing.T) {
	p, _ := indexFixture(t)
	// Bare query on keyword 3: exact + phrase + broad all eligible.
	if got := eligible(p, verticals.Games, market.US, 3, 1, FormBare); len(got) != 3 {
		t.Fatalf("bare: %d eligible, want 3", len(got))
	}
	// Extended: phrase + broad.
	if got := eligible(p, verticals.Games, market.US, 3, 1, FormExtended); len(got) != 2 {
		t.Fatalf("extended: %d eligible, want 2", len(got))
	}
	// Reordered: broad only.
	if got := eligible(p, verticals.Games, market.US, 3, 1, FormReordered); len(got) != 1 {
		t.Fatalf("reordered: %d eligible, want 1", len(got))
	}
	// Different keyword in the same cluster: broad only.
	if got := eligible(p, verticals.Games, market.US, 7, 1, FormBare); len(got) != 1 {
		t.Fatalf("same-cluster other keyword: %d eligible, want 1", len(got))
	}
	// Different cluster: nothing.
	if got := eligible(p, verticals.Games, market.US, 9, 2, FormBare); len(got) != 0 {
		t.Fatalf("other cluster: %d eligible, want 0", len(got))
	}
}

// TestEligibleFollowsMatches checks the posting-list lookup against the
// match-type specification: for a single bid of each match type on
// keyword 3 (cluster 1), every query keyword, cluster and form finds the
// bid exactly when Matches says it matches.
func TestEligibleFollowsMatches(t *testing.T) {
	for _, m := range MatchTypes {
		p := New()
		a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		ad, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddBid(ad, KeywordBid{KeywordID: 3, Cluster: 1, Match: m, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
		for _, kw := range []int{3, 7} {
			for _, cl := range []int{1, 2} {
				for _, form := range []QueryForm{FormBare, FormExtended, FormReordered} {
					if kw == 3 && cl != 1 {
						continue // keyword 3 lives in cluster 1
					}
					want := Matches(m, 3, kw, cl == 1, form)
					if got := len(eligible(p, verticals.Games, market.US, kw, cl, form)) == 1; got != want {
						t.Errorf("%v bid, query kw=%d cl=%d %v: eligible=%v, Matches=%v", m, kw, cl, form, got, want)
					}
				}
			}
		}
	}
}

func TestEligibleFiltersMarketAndVertical(t *testing.T) {
	p, _ := indexFixture(t)
	if got := eligible(p, verticals.Games, market.DE, 3, 1, FormBare); len(got) != 0 {
		t.Fatal("wrong market matched")
	}
	if got := eligible(p, verticals.Luxury, market.US, 3, 1, FormBare); len(got) != 0 {
		t.Fatal("wrong vertical matched")
	}
}

func TestEligibleFiltersDeadAccounts(t *testing.T) {
	p, a := indexFixture(t)
	x := p.Index()
	dead := make([]bool, p.NumAccounts())
	if got := x.Sublists(verticals.Games, market.US).EligibleAppendLive(nil, 3, 1, FormBare, dead); len(got) != 0 {
		t.Fatal("dead account served")
	}
	// Shutdown removes entries outright.
	if err := p.Shutdown(a.ID, simclock.StampAt(1, 0), "x"); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 0 {
		t.Fatalf("index len %d after shutdown", x.Len())
	}
}

func TestEligibleAppendReusesBuffer(t *testing.T) {
	p, _ := indexFixture(t)
	buf := make([]BidRef, 0, 16)
	got := p.Index().Sublists(verticals.Games, market.US).EligibleAppendLive(buf, 3, 1, FormBare, p.LiveSet())
	if len(got) != 3 || cap(got) != 16 {
		t.Fatalf("append variant: len=%d cap=%d", len(got), cap(got))
	}
}

// TestPausedAdLeavesPostingLists pins the invariant the live lookup
// relies on instead of a per-entry ad.Active check: pausing an ad removes
// its bids from the posting lists, so a live account's paused ad is never
// eligible, while the account's other ads keep serving.
func TestPausedAdLeavesPostingLists(t *testing.T) {
	p, a := indexFixture(t)
	paused := a.Ads[0]
	other, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, simclock.StampAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddBid(other, KeywordBid{KeywordID: 3, Cluster: 1, Match: MatchExact, MaxBid: 1}, 0); err != nil {
		t.Fatal(err)
	}
	p.PauseAd(paused)
	if paused.Active {
		t.Fatal("PauseAd left the ad active")
	}
	if !p.LiveSet()[a.ID] {
		t.Fatal("pausing one ad changed the account's liveness")
	}
	if n := p.Index().Len(); n != 1 {
		t.Fatalf("index holds %d bids after pause, want the other ad's 1", n)
	}
	got := eligible(p, verticals.Games, market.US, 3, 1, FormBare)
	if len(got) != 1 || got[0].Ad != other {
		t.Fatalf("paused ad still eligible: %d refs", len(got))
	}
}

func TestRemoveAdIsolation(t *testing.T) {
	// Removing one ad's bids must not disturb another ad's entries on the
	// same posting lists.
	p := New()
	a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
	if err := p.Approve(a.ID); err != nil {
		t.Fatal(err)
	}
	ad1, _ := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, 0)
	ad2, _ := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, 0)
	for _, ad := range []*Ad{ad1, ad2} {
		if err := p.AddBid(ad, KeywordBid{KeywordID: 0, Cluster: 0, Match: MatchExact, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	p.RetireAd(ad1)
	got := eligible(p, verticals.Games, market.US, 0, 0, FormBare)
	if len(got) != 1 || got[0].Ad != ad2 {
		t.Fatalf("wrong survivor: %d refs", len(got))
	}
}

// TestIndexEpoch pins the cache-invalidation contract: every mutation that
// can change a lookup's result — adding a bid, removing an ad's bids, or
// modifying a held bid's amount in place — advances the epoch, and reads
// never do.
func TestIndexEpoch(t *testing.T) {
	p, a := indexFixture(t)
	x := p.Index()
	e0 := x.Epoch()
	if e0 == 0 {
		t.Fatal("fixture added bids without advancing the epoch")
	}

	// Reads leave the epoch alone.
	eligible(p, verticals.Games, market.US, 3, 1, FormBare)
	if x.Epoch() != e0 {
		t.Fatal("a lookup advanced the epoch")
	}

	ad := a.Ads[0]
	p.ModifyBid(ad, ad.Bids[0], ad.Bids[0].MaxBid*1.1)
	e1 := x.Epoch()
	if e1 <= e0 {
		t.Fatal("ModifyBid with a new amount did not advance the epoch")
	}
	// A no-op modification (amount rejected) must not invalidate.
	p.ModifyBid(ad, ad.Bids[0], 0)
	if x.Epoch() != e1 {
		t.Fatal("rejected ModifyBid advanced the epoch")
	}

	p.PauseAd(ad)
	if x.Epoch() <= e1 {
		t.Fatal("PauseAd (RemoveAd) did not advance the epoch")
	}
}
