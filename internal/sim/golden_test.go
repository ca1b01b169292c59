package sim_test

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// goldenConfig is the pinned configuration behind the golden fixtures
// under testdata/. Changing ANY of these values invalidates the fixtures;
// regenerate with `make golden` and justify the behavioral change in the
// commit message (see internal/testutil/README.md).
func goldenConfig() sim.Config {
	cfg := sim.SmallConfig()
	cfg.Seed = 7
	cfg.Days = 120
	cfg.QueriesPerDay = 800
	cfg.RegistrationsPerDay = 10
	cfg.InitialLegit = 250
	return cfg
}

// goldenRun memoizes the golden-config simulation, run at one worker, for
// every test in this file (sync.Once keeps it safe if tests ever run in
// parallel).
var goldenRun struct {
	once sync.Once
	res  *sim.Result
}

func goldenResult(t *testing.T) *sim.Result {
	t.Helper()
	goldenRun.once.Do(func() {
		cfg := goldenConfig()
		cfg.Workers = 1
		goldenRun.res = sim.New(cfg).Run()
	})
	return goldenRun.res
}

// TestGoldenDatasetDigest pins the full dataset fingerprint: accounts,
// weekly activity, window aggregates, sample-window click counters,
// billing ledger, and detection records. Any behavioral drift in the
// engine or its substrates shows up here as a hash mismatch. It runs at
// one worker (a single serving shard, a single planning and scan block)
// and at three (uneven shard boundaries), both against the one fixture,
// so neither worker count can drift from the pinned bytes even on a
// host whose default worker count is the other.
func TestGoldenDatasetDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	path := filepath.Join("testdata", "tiny_seed7_digest.golden.json")
	t.Run("workers=1", func(t *testing.T) {
		testutil.GoldenJSON(t, path, testutil.DigestResult(goldenResult(t)))
	})
	t.Run("workers=3", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Workers = 3
		testutil.GoldenJSON(t, path, testutil.DigestResult(sim.New(cfg).Run()))
	})
}

// TestGoldenHeadlineCounters pins the run's headline counters separately
// from the hashes, so a drifting digest immediately shows which totals
// moved (or that none did, pointing at a record-level change).
func TestGoldenHeadlineCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	c := testutil.CountersOf(goldenResult(t))
	testutil.GoldenJSON(t, filepath.Join("testdata", "tiny_seed7_counters.golden.json"), c)
}

// TestGoldenCompanionInvariants is the companion invariant suite for the
// two goldens above (every golden test must have one): conservation laws
// that hold for ANY valid run, not just the pinned one. If a regenerated
// golden ever violates these, the new behavior is wrong no matter what
// the fixtures say.
func TestGoldenCompanionInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	res := goldenResult(t)
	p := res.Platform

	// Clicks never exceed impressions, globally and per account.
	if res.Clicks > res.Impressions {
		t.Errorf("clicks (%d) exceed impressions (%d)", res.Clicks, res.Impressions)
	}
	if res.FraudClicks > res.Clicks {
		t.Errorf("fraud clicks (%d) exceed clicks (%d)", res.FraudClicks, res.Clicks)
	}

	// Billed spend equals ledger totals equals summed account spend.
	var acctSpend float64
	var acctClicks, acctImpr int64
	for _, a := range p.Accounts() {
		if a.Clicks > a.Impressions {
			t.Errorf("account %d: clicks (%d) exceed impressions (%d)", a.ID, a.Clicks, a.Impressions)
		}
		if ledgerBilled := p.Ledger().Billed(a.ID); !approxEqual(ledgerBilled, a.Spend) {
			t.Errorf("account %d: ledger billed %v != account spend %v", a.ID, ledgerBilled, a.Spend)
		}
		acctSpend += a.Spend
		acctClicks += a.Clicks
		acctImpr += a.Impressions
	}
	if !approxEqual(acctSpend, p.Ledger().TotalBilled()) || !approxEqual(acctSpend, res.Spend) {
		t.Errorf("spend not conserved: accounts=%v ledger=%v result=%v",
			acctSpend, p.Ledger().TotalBilled(), res.Spend)
	}
	if acctClicks != res.Clicks || acctImpr != res.Impressions {
		t.Errorf("click/impression totals not conserved: accounts=%d/%d result=%d/%d",
			acctClicks, acctImpr, res.Clicks, res.Impressions)
	}
	if lost := p.Ledger().TotalLost(); lost > p.Ledger().TotalBilled() || lost != res.RevenueLost {
		t.Errorf("revenue lost inconsistent: lost=%v billed=%v result=%v",
			lost, p.Ledger().TotalBilled(), res.RevenueLost)
	}

	// Every detection record references an account the platform actually
	// terminated, stamped no earlier than the account's creation.
	for _, rec := range res.Collector.Detections() {
		a, err := p.Account(rec.Account)
		if err != nil {
			t.Fatalf("detection record references unknown account %d", rec.Account)
		}
		if a.Status != platform.StatusShutdown && a.Status != platform.StatusRejected {
			t.Errorf("detection record for account %d in state %s", a.ID, a.Status)
		}
		if rec.At < a.Created {
			t.Errorf("account %d detected (%v) before creation (%v)", a.ID, rec.At, a.Created)
		}
	}

	// Weekly activity aggregates reproduce the platform totals.
	var wkImpr, wkClicks int64
	var wkSpend float64
	for _, a := range p.Accounts() {
		agg := res.Collector.Agg(a.ID)
		if agg == nil {
			continue
		}
		for _, w := range agg.Weeks {
			wkImpr += w.Impressions
			wkClicks += w.Clicks
			wkSpend += w.Spend
		}
	}
	if wkImpr != res.Impressions || wkClicks != res.Clicks || !approxEqual(wkSpend, res.Spend) {
		t.Errorf("weekly aggregates (%d/%d/%v) != result totals (%d/%d/%v)",
			wkImpr, wkClicks, wkSpend, res.Impressions, res.Clicks, res.Spend)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	s := a + b
	if s < 0 {
		s = -s
	}
	return d <= 1e-6*(1+s)
}
