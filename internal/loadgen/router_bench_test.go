package loadgen

// Router policy benchmark, `make bench-router`: measure round-robin
// against least-loaded and affinity on scenarios built to expose their
// structural advantages, and append the results to BENCH_router.json.
//
// Two scenarios, two mechanisms:
//
//   - slow_backend: one member carries a large injected service latency.
//     Round-robin keeps sending it a third of the traffic and waits out
//     the latency every time; least-loaded reads the in-flight gauge and
//     routes around the congestion, so its p99 collapses to the healthy
//     members' service time.
//
//   - cache_affinity: every member pays an injected "auction cost" on
//     response-cache misses (the fault layer mounts inside the cache),
//     capacity is tight, and traffic is cache-friendly head keywords.
//     Affinity pins each keyword to one member, so the cluster caches
//     each key once and the miss load stays under the admission bound;
//     round-robin re-misses every key on every member, and the excess
//     miss work overflows admission into client-visible shedding.

import (
	"encoding/json"
	"flag"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
)

var benchRouterOut = flag.String("bench-router-out", "",
	"append the router benchmark record to this JSON file (see make bench-router)")

// RouterBenchRun is one measured (scenario, policy) cell.
type RouterBenchRun struct {
	Scenario  string  `json:"scenario"`
	Policy    string  `json:"policy"`
	Sent      uint64  `json:"sent"`
	OK        uint64  `json:"ok"`
	P50NS     int64   `json:"p50_ns"`
	P99NS     int64   `json:"p99_ns"`
	ShedRate  float64 `json:"shed_rate"`
	ErrRate   float64 `json:"error_rate"`
	Masked    uint64  `json:"masked"`
	Retried   uint64  `json:"retried"`
	CacheHits int64   `json:"cache_hits"`
	CacheMiss int64   `json:"cache_misses"`
}

// RouterBenchReport is the router record appended to BENCH_router.json.
type RouterBenchReport struct {
	Bench      string           `json:"bench"`
	Config     string           `json:"config"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Timestamp  string           `json:"timestamp"`
	Runs       []RouterBenchRun `json:"runs"`
	Note       string           `json:"note"`
}

// measurePolicy runs spec under one policy and reduces the report to a
// bench cell.
func measurePolicy(tb testing.TB, spec Scenario, policy string) RouterBenchRun {
	tb.Helper()
	spec.Policy = policy
	rep, err := RunScenario(spec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	run := RouterBenchRun{
		Scenario: spec.Name,
		Policy:   rep.Policy,
		Sent:     rep.Load.Total.Sent,
		OK:       rep.Load.Total.OK,
		P50NS:    rep.Load.Total.Latency.P50NS,
		P99NS:    rep.Load.Total.Latency.P99NS,
		ShedRate: rep.Load.Total.ShedRate,
		ErrRate:  rep.Load.Total.ErrRate,
		Masked:   rep.Router.Masked,
		Retried:  rep.Router.Retried,
	}
	for _, b := range rep.Backends {
		run.CacheHits += b.CacheHits
		run.CacheMiss += b.CacheMiss
	}
	return run
}

// slowBackendSpec: member i2 is 500ms slow; everything else is healthy
// and uncontended. The slow member sits at the highest index so the
// least-loaded tie-break (lowest index wins at equal load) sends idle
// ties to healthy members.
func slowBackendSpec() Scenario {
	return Scenario{
		Name:      "slow_backend",
		Seed:      31,
		Instances: 3,
		Days:      6,
		Queries:   150,
		Arrival:   ArrivalSpec{Kind: "poisson", Rate: 300},
		HorizonMS: 2500,
		Classes: []Class{
			{Name: "head", Weight: 0.7, Kind: "head"},
			{Name: "tail", Weight: 0.3, Kind: "tail"},
		},
		Workers:     16,
		MaxInflight: 256,
		Faults:      []FaultSpec{{Backend: 2, LatencyMS: 500}},
	}
}

// cacheAffinitySpec: trending keywords (head class capped to the single
// most popular keyword per vertical), a 1s injected "auction cost" on
// every cache miss (the fault layer mounts inside the response cache,
// so hits skip it), and — the load-bearing constraint — a 256-entry
// response cache per member. The cache keys on (query, country), so 39
// trending phrases fan out to ~600 cacheable pairs across markets: the
// global working set does not fit any single member's cache, but an
// affinity partition of it (one third of the phrases, ~200 pairs) does.
// Round-robin therefore thrashes its LRUs forever — every member needs
// every pair — and its steady-state miss rate stays ~2.5x affinity's no
// matter how long the warmup runs (measured in-spike: ~25% vs ~10%). A
// calm 20s warmup reaches that steady state without tripping admission;
// the 8x flash crowd (440/s for 6s) then offers ~37 erlangs of miss
// work per member under round-robin against the 40-slot admission gate
// — deep inside the Erlang-B knee, so the gate trips early in the
// spike, and each 429 cools that member for the whole-seconds
// Retry-After, diverting its keyspace as ~100%-miss traffic onto
// survivors already at the knee: the cascade is the amplifier that
// turns the first trip into sustained shedding. The affinity cluster's
// hottest member carries ~17 erlangs, a ~23-slot absolute margin that
// absorbs both Poisson fluctuation (Erlang-B ~1e-6) and the bursty
// in-flight contribution of concurrent cache hits on a time-sliced
// CPU. Shedding is the policy signal.
func cacheAffinitySpec() Scenario {
	return Scenario{
		Name:      "cache_affinity",
		Seed:      77,
		Instances: 3,
		Days:      6,
		Queries:   150,
		Arrival:   ArrivalSpec{Kind: "flash", Rate: 55, Factor: 8, StartMS: 20000, DurMS: 6000},
		HorizonMS: 26000,
		Classes: []Class{
			{Name: "head", Weight: 1, Kind: "head", TopK: 1},
		},
		Workers:     160,
		MaxInflight: 40,
		CacheSize:   256,
		Faults: []FaultSpec{
			{Backend: 0, LatencyMS: 1000},
			{Backend: 1, LatencyMS: 1000},
			{Backend: 2, LatencyMS: 1000},
		},
	}
}

// TestWriteRouterBenchJSON is driven by `make bench-router`: it runs
// both scenarios under round-robin and the challenger policy, asserts
// the structural wins the scenarios are built to expose, and appends
// the record to BENCH_router.json.
func TestWriteRouterBenchJSON(t *testing.T) {
	if *benchRouterOut == "" {
		t.Skip("pass -bench-router-out (or run `make bench-router`)")
	}

	slowRR := measurePolicy(t, slowBackendSpec(), "round_robin")
	slowLL := measurePolicy(t, slowBackendSpec(), "least_loaded")
	cacheRR := measurePolicy(t, cacheAffinitySpec(), "round_robin")
	cacheAff := measurePolicy(t, cacheAffinitySpec(), "affinity")

	// The wins the record exists to demonstrate. Loose factors: these are
	// structural gaps (routing around 500ms vs waiting it out; paying a
	// miss cost once per key vs once per key per member), not timing
	// noise.
	if slowLL.P99NS >= slowRR.P99NS/2 {
		t.Errorf("least_loaded p99 %dns not < half of round_robin p99 %dns", slowLL.P99NS, slowRR.P99NS)
	}
	if cacheRR.ShedRate <= 0 {
		t.Errorf("cache scenario never saturated round_robin (shed rate %v) — bench shape lost its pressure", cacheRR.ShedRate)
	}
	if cacheAff.ShedRate+cacheAff.ErrRate >= (cacheRR.ShedRate+cacheRR.ErrRate)*0.7 {
		t.Errorf("affinity unserved rate %.3f not well below round_robin %.3f",
			cacheAff.ShedRate+cacheAff.ErrRate, cacheRR.ShedRate+cacheRR.ErrRate)
	}
	if cacheAff.CacheMiss >= cacheRR.CacheMiss {
		t.Errorf("affinity misses %d not below round_robin misses %d", cacheAff.CacheMiss, cacheRR.CacheMiss)
	}

	procs := runtime.GOMAXPROCS(0)
	note := "slow_backend: p99 is the win (least-loaded routes around a 500ms member); " +
		"cache_affinity: shed/error rate is the win (the working set fits an affinity partition of the " +
		"256-entry per-member caches but not any single member's, so round-robin thrashes its LRUs, pays the " +
		"1s miss cost ~2.5x as often, overflows the 40-slot admission gate under the 8x flash crowd, and " +
		"the Retry-After cooling cascades the spike onto the survivors)"
	if procs == 1 {
		note += "; HOST HAS 1 CPU: all instances and the load generator share one core"
	}
	rep := RouterBenchReport{
		Bench:      "router",
		Config:     "3x small/6d/150q",
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Runs:       []RouterBenchRun{slowRR, slowLL, cacheRR, cacheAff},
		Note:       note,
	}
	if err := testutil.AppendBenchRecord(*benchRouterOut, rep); err != nil {
		t.Fatal(err)
	}
	b, _ := json.MarshalIndent(rep, "", "  ")
	t.Logf("appended to %s:\n%s", *benchRouterOut, b)
}
