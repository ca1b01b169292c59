package adserver

// Tests for the cluster-facing server surface added for the routed
// cluster: /stats, instance headers, the per-instance response cache,
// and the client's per-host Retry-After cooling.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/verticals"
)

func clusterHandler(t *testing.T, s *Server) http.Handler {
	t.Helper()
	return s.Handler(Options{
		MaxInFlight: 8,
		RetryAfter:  time.Second,
		InstanceID:  "i7",
		CacheSize:   2,
	})
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestStatsEndpoint pins the /stats contract the router's health loop
// and the bench reports read: instance identity, admission capacity,
// served/shed counters, cache hit/miss split, and the platform
// aggregates fixed in New.
func TestStatsEndpoint(t *testing.T) {
	s, gen := serverFixture(t)
	h := clusterHandler(t, s)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	searchPath := "/search?q=" + url.QueryEscape(phrase) + "&country=US"

	read := func() Stats {
		rec := getPath(t, h, "/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("/stats status %d", rec.Code)
		}
		var z Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &z); err != nil {
			t.Fatal(err)
		}
		return z
	}

	z := read()
	if z.Instance != "i7" || z.Capacity != 8 {
		t.Fatalf("stats identity: %+v", z)
	}
	if z.Accounts != 5 || z.LiveAds != 5 || z.IndexBids != 5 {
		t.Fatalf("platform aggregates: %+v", z)
	}
	if z != s.Stats() {
		t.Fatalf("/stats reply %+v differs from the in-process snapshot %+v", z, s.Stats())
	}
	if z.Served != 0 || z.CacheHits != 0 || z.CacheMiss != 0 {
		t.Fatalf("fresh server has history: %+v", z)
	}

	if rec := getPath(t, h, searchPath); rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	} else if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first search X-Cache = %q, want miss", got)
	}
	z = read()
	if z.Served != 1 || z.CacheMiss != 1 || z.CacheHits != 0 {
		t.Fatalf("after miss: %+v", z)
	}

	// The identical query hits the cache: same body, no new serve (a hit
	// is a replay, not a new auction).
	first := getPath(t, h, searchPath)
	if got := first.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second search X-Cache = %q, want hit", got)
	}
	z = read()
	if z.Served != 1 || z.CacheHits != 1 {
		t.Fatalf("after hit: %+v", z)
	}
}

// TestCacheHitBodyIdentical: a hit returns byte-for-byte what the
// handler rendered on the miss — the property that makes the cache
// semantically free.
func TestCacheHitBodyIdentical(t *testing.T) {
	s, gen := serverFixture(t)
	h := clusterHandler(t, s)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	path := "/search?q=" + url.QueryEscape(phrase) + "&country=US"

	miss := getPath(t, h, path)
	hit := getPath(t, h, path)
	if miss.Body.String() != hit.Body.String() {
		t.Fatalf("hit body differs from miss body:\n%s\nvs\n%s", miss.Body.String(), hit.Body.String())
	}
	if hit.Header().Get("Content-Type") != "application/json" {
		t.Fatal("hit lost Content-Type")
	}
}

// TestInstanceHeaders: every /search response carries the identity and
// admission headers the router feeds its least-loaded policy from.
func TestInstanceHeaders(t *testing.T) {
	s, gen := serverFixture(t)
	h := clusterHandler(t, s)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	rec := getPath(t, h, "/search?q="+url.QueryEscape(phrase)+"&country=US")
	if rec.Header().Get("X-Instance") != "i7" {
		t.Fatalf("X-Instance = %q", rec.Header().Get("X-Instance"))
	}
	if rec.Header().Get("X-Capacity") != "8" {
		t.Fatalf("X-Capacity = %q", rec.Header().Get("X-Capacity"))
	}
	if rec.Header().Get("X-Inflight") == "" {
		t.Fatal("X-Inflight missing")
	}
}

// TestResponseCacheLRU pins the eviction order and the update path.
func TestResponseCacheLRU(t *testing.T) {
	c := newResponseCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touches a: b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if got, ok := c.get("a"); !ok || string(got) != "A" {
		t.Fatalf("a = %q, %v", got, ok)
	}
	c.put("a", []byte("A2")) // update in place, no eviction
	if got, _ := c.get("a"); string(got) != "A2" {
		t.Fatalf("a after update = %q", got)
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c evicted by an in-place update")
	}
	if c.hits.Load() == 0 || c.misses.Load() == 0 {
		t.Fatalf("counters: hits=%d misses=%d", c.hits.Load(), c.misses.Load())
	}
}

// TestClientHostCooling pins the per-host Retry-After bookkeeping: a
// cooled host reports remaining time, longer deadlines win, expiry
// clears, and distinct hosts are independent.
func TestClientHostCooling(t *testing.T) {
	c := NewClient("http://a:1")
	if rem := c.coolingRemaining("http://a:1/search"); rem != 0 {
		t.Fatalf("fresh client cooling %v", rem)
	}
	c.noteCooling("http://a:1/search", 500*time.Millisecond)
	if rem := c.coolingRemaining("http://a:1/other"); rem <= 0 || rem > 500*time.Millisecond {
		t.Fatalf("cooling remaining = %v", rem)
	}
	// A shorter hint never truncates an existing deadline.
	c.noteCooling("http://a:1/search", time.Millisecond)
	if rem := c.coolingRemaining("http://a:1/"); rem < 400*time.Millisecond {
		t.Fatalf("shorter hint truncated deadline: %v", rem)
	}
	// Distinct hosts cool independently.
	if rem := c.coolingRemaining("http://b:2/search"); rem != 0 {
		t.Fatalf("unrelated host cooling %v", rem)
	}
	// Expired entries clear.
	c.noteCooling("http://c:3/x", time.Nanosecond)
	time.Sleep(time.Millisecond)
	if rem := c.coolingRemaining("http://c:3/x"); rem != 0 {
		t.Fatalf("expired cooling persists: %v", rem)
	}
}

// TestClientCoolingPopulatedBy429: a 429 with Retry-After from the
// server lands in the client's cooling map for that host. (A client
// with retry budget left sleeps the hint off before its next attempt,
// so the deadline is observed here with a single-attempt policy.)
func TestClientCoolingPopulatedBy429(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"shed","code":"overloaded"}`)
	}))
	defer ts.Close()

	c := NewClientSeeded(ts.URL, RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}, 1)
	if _, err := c.Search("x", market.US); err == nil {
		t.Fatal("saturated server did not error a no-retry client")
	}
	if rem := c.coolingRemaining(ts.URL + "/search"); rem <= 0 {
		t.Fatal("429 did not populate the cooling map")
	}
}
