package adserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/market"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// RetryPolicy governs how the client retries transient failures:
// transport errors, 429 (shed) and 5xx responses. Backoff follows
// backoff.Schedule: it doubles from BaseDelay, with multiplicative
// jitter of ±JitterFrac drawn from the client's seeded RNG so retry
// schedules are reproducible, and never exceeds MaxDelay. A 429's Retry-After hint, when longer than the computed
// backoff, wins. The total budget is bounded both by MaxAttempts and by
// the request context's deadline: the client never sleeps past either.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
	JitterFrac  float64
}

// DefaultRetryPolicy suits a client talking to a shedding server: a few
// quick attempts with enough jitter to decorrelate a thundering herd.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second, JitterFrac: 0.2}
}

// delay computes the sleep before attempt (1-based counting of the
// attempt just failed), folding in jitter and the server's Retry-After
// hint.
func (p RetryPolicy) delay(attempt int, retryAfter time.Duration, rng *stats.RNG) time.Duration {
	s := backoff.Schedule{Base: p.BaseDelay, Cap: p.MaxDelay}
	var u float64
	if p.JitterFrac > 0 && rng != nil {
		s.Jitter, u = p.JitterFrac, rng.Float64()
	}
	d := s.Delay(attempt-1, u)
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Client is a typed HTTP client for the ad server with retry-aware
// request methods. Safe for concurrent use.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Policy  RetryPolicy

	mu        sync.Mutex
	rng       *stats.RNG           // jitter stream; guarded by mu
	coolUntil map[string]time.Time // per-host Retry-After deadlines; guarded by mu
}

// NewClient returns a client for the given base URL (e.g.
// "http://127.0.0.1:8406") with the default retry policy and a fixed
// jitter seed.
func NewClient(baseURL string) *Client {
	return NewClientSeeded(baseURL, DefaultRetryPolicy(), 1)
}

// NewClientSeeded returns a client with an explicit retry policy and
// jitter seed (determinism-sensitive callers pin the seed).
func NewClientSeeded(baseURL string, policy RetryPolicy, seed uint64) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 10 * time.Second},
		Policy:  policy,
		rng:     stats.NewRNG(seed),
	}
}

// StatusError reports a non-2xx terminal response, carrying the decoded
// structured error body when the server sent one.
type StatusError struct {
	StatusCode int
	Body       ErrorBody
}

func (e *StatusError) Error() string {
	if e.Body.Code != "" {
		return fmt.Sprintf("adserver client: status %d (%s: %s)", e.StatusCode, e.Body.Code, e.Body.Error)
	}
	return fmt.Sprintf("adserver client: status %d", e.StatusCode)
}

// Search issues one query with the client's retry policy and no
// deadline beyond the transport timeout.
func (c *Client) Search(q string, country market.Country) (*SearchResponse, error) {
	return c.SearchContext(context.Background(), q, country)
}

// SearchContext issues one query, retrying transient failures per the
// client's policy within ctx's deadline.
func (c *Client) SearchContext(ctx context.Context, q string, country market.Country) (*SearchResponse, error) {
	u := fmt.Sprintf("%s/search?q=%s&country=%s", c.BaseURL, url.QueryEscape(q), country)
	var out SearchResponse
	if err := c.getJSON(ctx, u, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the server counters.
func (c *Client) Stats() (*Stats, error) {
	var out Stats
	if err := c.getJSON(context.Background(), c.BaseURL+"/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// getJSON is the retry loop shared by all client calls. A host that
// previously answered 429 with Retry-After is cooling: the client
// honors that host's own deadline — sleeping it off up front rather
// than hammering the host and burning retry attempts — instead of
// treating every backend as one shared budget.
func (c *Client) getJSON(ctx context.Context, u string, into interface{}) error {
	attempts := c.Policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	if rem := c.coolingRemaining(u); rem > 0 {
		if err := c.sleep(ctx, rem); err != nil {
			return fmt.Errorf("adserver client: host cooling (Retry-After): %w", err)
		}
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		var retryAfter time.Duration
		lastErr, retryAfter = c.tryOnce(ctx, u, into)
		if lastErr == nil {
			return nil
		}
		if retryAfter > 0 {
			c.noteCooling(u, retryAfter)
		}
		var se *StatusError
		if errors.As(lastErr, &se) && !retryable(se.StatusCode) {
			return lastErr
		}
		if attempt == attempts {
			break
		}
		if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return fmt.Errorf("adserver client: %w after %d attempts (last: %v)", err, attempt, lastErr)
		}
	}
	return fmt.Errorf("adserver client: gave up after %d attempts: %w", attempts, lastErr)
}

// tryOnce performs a single GET, returning the server's Retry-After
// hint alongside any error.
func (c *Client) tryOnce(ctx context.Context, u string, into interface{}) (error, time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("adserver client: %w", err), 0
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("adserver client: %w", err), 0
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{StatusCode: resp.StatusCode}
		_ = json.NewDecoder(resp.Body).Decode(&se.Body)
		var retryAfter time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return se, retryAfter
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("adserver client: decode: %w", err), 0
	}
	return nil, 0
}

// noteCooling records a host's Retry-After deadline.
func (c *Client) noteCooling(u string, retryAfter time.Duration) {
	host := hostOf(u)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coolUntil == nil {
		c.coolUntil = make(map[string]time.Time)
	}
	until := time.Now().Add(retryAfter)
	if until.After(c.coolUntil[host]) {
		c.coolUntil[host] = until
	}
}

// coolingRemaining returns how long the URL's host is still cooling (0
// when it is not), dropping expired entries.
func (c *Client) coolingRemaining(u string) time.Duration {
	host := hostOf(u)
	c.mu.Lock()
	defer c.mu.Unlock()
	until, ok := c.coolUntil[host]
	if !ok {
		return 0
	}
	rem := time.Until(until)
	if rem <= 0 {
		delete(c.coolUntil, host)
		return 0
	}
	return rem
}

// hostOf extracts the host key for the cooling map (the raw string on
// parse failure, so malformed URLs still cool something).
func hostOf(u string) string {
	parsed, err := url.Parse(u)
	if err != nil || parsed.Host == "" {
		return u
	}
	return parsed.Host
}

// backoff draws the jittered delay for the attempt that just failed.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Policy.delay(attempt, retryAfter, c.rng)
}

// sleep waits d, aborting early if ctx ends or if d would overrun ctx's
// deadline (no point sleeping into a budget we cannot spend).
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
		return fmt.Errorf("retry budget exhausted (deadline within backoff)")
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable reports whether a status code is worth another attempt.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// LoadResult summarizes a load-generation run.
type LoadResult struct {
	Requests   int
	Errors     int
	AdsServed  int
	Clicks     int
	Elapsed    time.Duration
	LatencyP50 time.Duration
	LatencyP95 time.Duration
}

// GenerateLoad fires n queries at the server from `workers` concurrent
// clients, drawing query phrases from the keyword universes (with random
// decoration so all three match forms are exercised).
func GenerateLoad(c *Client, gen *queries.Generator, n, workers int, seed uint64) LoadResult {
	if workers < 1 {
		workers = 1
	}
	var (
		mu        sync.Mutex
		res       LoadResult
		latencies []time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	per := n / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(w)*7919)
			countries := market.NewTrafficSampler(rng.ForkNamed("countries"))
			verts := verticals.All()
			for i := 0; i < per; i++ {
				vi := rng.Intn(len(verts))
				u := gen.Universe(vi)
				kw := u.Keywords[rng.Intn(u.Size())]
				q := kw.Phrase
				switch rng.Intn(3) {
				case 1:
					q = "best " + q + " today"
				case 2:
					q = "cheap " + q
				}
				t0 := time.Now()
				resp, err := c.Search(q, countries.Sample())
				lat := time.Since(t0)
				mu.Lock()
				res.Requests++
				latencies = append(latencies, lat)
				if err != nil {
					res.Errors++
				} else {
					res.AdsServed += len(resp.Ads)
					for _, ad := range resp.Ads {
						if ad.Clicked {
							res.Clicks++
						}
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if len(latencies) > 0 {
		ls := make([]float64, len(latencies))
		for i, l := range latencies {
			ls[i] = float64(l)
		}
		res.LatencyP50 = time.Duration(stats.Quantile(ls, 0.5))
		res.LatencyP95 = time.Duration(stats.Quantile(ls, 0.95))
	}
	return res
}
