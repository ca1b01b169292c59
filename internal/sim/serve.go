package sim

// The serving engine: the day's query → auction → click → billing loop,
// sharded across the worker pool with byte-identical outcomes at any
// worker count (Workers = 1 is one shard). Each query's page comes from
// internal/serving, the page path the HTTP adserver runs too.
//
// The determinism contract (DESIGN.md "Parallel serving") rests on three
// facts about stepDay: campaign and account state is frozen while
// serving runs (arrivals, agent steps and detection all happen outside
// the serving phase), the query stream and the click stream are each one
// sequential RNG, and every order-sensitive accumulation is either a
// commutative integer count or a float sum applied at the day barrier in
// global query order. Concretely the engine runs five sub-phases per
// day:
//
//	A. generate the day's queries sequentially (one RNG stream);
//	B. shard the query indices into contiguous blocks, one per worker;
//	   each worker resolves eligibility + auction for its block against
//	   the frozen index — through a per-worker, epoch-invalidated page
//	   cache — and sums its block's click-RNG draw count;
//	C. derive each block's click-RNG substream sequentially from the
//	   master click stream (stats.SubStreams), advancing the master
//	   exactly as rolling every page in query order would;
//	D. workers roll clicks for their block, in query order, from the
//	   block's private substream and stage outcomes: commutative counters
//	   in a dataset.ShardAccumulator, clicks as ordered ClickRows, events
//	   in a per-worker buffer;
//	E. at the day barrier, the simulation goroutine folds every shard in
//	   shard order — which, because blocks are contiguous, is global
//	   query order: counter merges, then billing + spend + click folds
//	   row by row, then event flush.
//
// Rolling block k from its substream yields exactly the values rolling
// every page in query order off the master stream would, so the committed
// goldens pin the same bytes at every worker count.

import (
	"sync"

	"repro/internal/clicks"
	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/serving"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// pageKey identifies a query equivalence class: two queries with the same
// key see the same eligible bids and auction outcome while the index
// epoch is unchanged.
type pageKey struct {
	vi      int32
	kw      int32
	cl      int32
	form    platform.QueryForm
	country market.Country
}

// pagePool recycles pages and their backing slices across epochs: pages
// live exactly as long as the cache that holds them, so when the cache is
// invalidated the pool rewinds and the next day's misses refill the same
// storage instead of reallocating three slices per page.
type pagePool struct {
	chunks [][]serving.Page
	used   int
}

const pageChunk = 512

func (pp *pagePool) get() *serving.Page {
	ci, pi := pp.used/pageChunk, pp.used%pageChunk
	if ci == len(pp.chunks) {
		pp.chunks = append(pp.chunks, make([]serving.Page, pageChunk))
	}
	pp.used++
	return &pp.chunks[ci][pi]
}

// reset rewinds the pool; only safe when every page handed out is dead
// (i.e. together with clearing the page cache).
func (pp *pagePool) reset() { pp.used = 0 }

// maxPageEntries bounds one shard's cache; past it, pages are still
// computed but no longer retained. A full-scale day has ~15k distinct
// pages, so the bound only guards pathological configurations.
const maxPageEntries = 1 << 15

// servePage is one query's resolved page plus the day-dependent fraud
// count, which is never cached: compromises flip account fraud flags
// without touching the index, so fraud presence is recomputed live.
type servePage struct {
	pg         *serving.Page
	fraudShown int32
}

// subEntry is one resolved (vertical, country) → posting-list handle in
// a shard's sublist cache.
type subEntry struct {
	country market.Country
	sl      platform.Sublists
}

// shard is one worker's private serving state.
type shard struct {
	// Page cache, valid for one index epoch.
	cache    map[pageKey]*serving.Page
	epoch    uint64
	hasEpoch bool
	pool     pagePool

	// Sublist cache, also epoch-scoped: the index's composite (vertical,
	// country) map key hashes two strings, so each shard resolves it once
	// per pair per epoch instead of once per query. Outer slice indexed
	// by vertical index; inner lists hold a handful of countries.
	subs [][]subEntry

	// Scratch reused across queries.
	scr      serving.Scratch
	clickBuf []int

	// Per-day staging, folded at the day barrier.
	acc    dataset.ShardAccumulator
	clicks []dataset.ClickRow
	events []eventlog.Event
	pages  []servePage
}

// serveEngine owns the worker shards, the day's query table and the
// per-shard click-substream tables.
type serveEngine struct {
	core    serving.Engine
	workers int
	shards  []*shard

	queries []queries.Query
	draws   []int32 // click-RNG draws per shard block
	states  []stats.RNGState
}

func newServeEngine(core serving.Engine, workers int) *serveEngine {
	e := &serveEngine{core: core, workers: workers, shards: make([]*shard, workers), draws: make([]int32, workers)}
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	return e
}

// bounds returns worker k's contiguous query-index block [lo, hi).
func (e *serveEngine) bounds(k, n int) (int, int) {
	return k * n / e.workers, (k + 1) * n / e.workers
}

// fanOut runs fn(k) for every k in [0, w) on its own goroutine and
// returns once all of them have.
func fanOut(w int, fn func(k int)) {
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	wg.Wait()
}

// ensureEpoch drops every cached page (and rewinds the page pool and
// sublist cache) when the index has mutated since the cache was filled,
// or on first use.
func (sh *shard) ensureEpoch(epoch uint64) {
	if sh.cache == nil {
		sh.cache = make(map[pageKey]*serving.Page, 1024)
	}
	if sh.subs == nil {
		sh.subs = make([][]subEntry, len(verticals.All()))
	}
	if !sh.hasEpoch || sh.epoch != epoch {
		clear(sh.cache)
		sh.pool.reset()
		for i := range sh.subs {
			sh.subs[i] = sh.subs[i][:0]
		}
		sh.epoch = epoch
		sh.hasEpoch = true
	}
}

// sublists resolves the query's (vertical, country) posting-list handle
// through the shard's epoch-scoped cache.
func (sh *shard) sublists(s *Sim, q *queries.Query) platform.Sublists {
	row := sh.subs[q.VerticalIdx]
	for i := range row {
		if row[i].country == q.Country {
			return row[i].sl
		}
	}
	sl := s.p.Index().Sublists(q.Vertical, q.Country)
	sh.subs[q.VerticalIdx] = append(row, subEntry{q.Country, sl})
	return sl
}

// page resolves a query's page through the cache. Hot Zipf-head queries
// repeat heavily within a day while the index is frozen, so the hit path
// skips both the posting-list walk and the auction. Empty outcomes are
// cached too. live is the day's stamped account-liveness bitmap
// (platform.LiveSet).
func (sh *shard) page(s *Sim, q *queries.Query, live []bool) *serving.Page {
	key := pageKey{int32(q.VerticalIdx), int32(q.KeywordID), int32(q.Cluster), q.Form, q.Country}
	if pg, ok := sh.cache[key]; ok {
		return pg
	}
	pg := sh.pool.get()
	s.eng.core.Fill(pg, sh.sublists(s, q), q.KeywordID, q.Cluster, q.Form, live, &sh.scr)
	if len(sh.cache) < maxPageEntries {
		sh.cache[key] = pg
	}
	return pg
}

// serveQueries runs the day's query volume through the auction and click
// model on the worker pool; see the package comment for the A–E phase
// structure and why each phase preserves byte identity.
func (s *Sim) serveQueries(day simclock.Day) {
	if s.eng == nil {
		s.eng = newServeEngine(serving.Engine{P: s.p, Auction: s.cfg.Auction, Model: clicks.DefaultModel()}, s.resolveWorkers())
	}
	e := s.eng
	n := s.cfg.QueriesPerDay

	// Phase A: the query stream is one sequential RNG; draw it up front.
	if cap(e.queries) < n {
		e.queries = make([]queries.Query, n)
	}
	e.queries = e.queries[:n]
	for i := range e.queries {
		e.queries[i] = s.qgen.Next()
	}

	epoch := s.p.Index().Epoch()
	nWin := s.col.ActiveWindowCount(day)
	// Stamp the liveness bitmap on the simulation goroutine before the
	// fan-out; workers read it concurrently but never write.
	live := s.p.LiveSet()

	// Phase B: eligibility + auctions against the frozen index.
	fanOut(e.workers, func(k int) { s.shardAuctions(k, n, nWin, epoch, live) })

	// Phase C: partition the master click stream by per-block draw
	// count. After this the master has advanced exactly as rolling every
	// page in query order would have.
	e.states = stats.SubStreams(s.clickRNG, e.draws, e.states[:0])

	// Phase D: click rolls and outcome staging from private substreams.
	// Without an event sink the workers skip the event buffer entirely —
	// the rolls and folds are unaffected.
	stage := s.events != nil
	fanOut(e.workers, func(k int) { s.shardClicks(day, k, n, stage) })

	// Phase E: deterministic fold, shard by shard — global query order.
	for _, sh := range e.shards {
		s.res.Auctions += sh.acc.Auctions
		s.res.Impressions += sh.acc.Impressions
		s.col.MergeShard(day, &sh.acc)
		sh.acc.AccountImpressions(s.p.CountImpressions)
		for i := range sh.clicks {
			row := &sh.clicks[i]
			s.p.Bill(row.Account, row.Price)
			s.res.Clicks++
			s.res.Spend += row.Price
			if row.Fraud {
				s.res.FraudClicks++
				s.res.FraudSpend += row.Price
			}
			s.col.ApplyClick(day, *row)
		}
		if stage {
			eventlog.AppendAll(s.events, sh.events)
		}
	}
	s.res.RevenueLost = s.p.Ledger().TotalLost()
}

// shardAuctions is phase B for one worker: resolve every query in the
// block through the page cache and sum the block's draw count. All
// writes are shard-private or to this block's slot of e.draws.
func (s *Sim) shardAuctions(k, n, nWin int, epoch uint64, live []bool) {
	e := s.eng
	sh := e.shards[k]
	lo, hi := e.bounds(k, n)
	sh.ensureEpoch(epoch)
	sh.acc.BeginDay(nWin)
	sh.clicks = sh.clicks[:0]
	sh.events = sh.events[:0]
	sh.pages = sh.pages[:0]
	var draws int32
	for gi := lo; gi < hi; gi++ {
		pg := sh.page(s, &e.queries[gi], live)
		sp := servePage{pg: pg}
		if len(pg.Placements) > 0 {
			sh.acc.Auctions++
			for _, a := range pg.Accts {
				if a.Fraud {
					sp.fraudShown++
				}
			}
		}
		draws += pg.Draws
		sh.pages = append(sh.pages, sp)
	}
	e.draws[k] = draws
}

// shardClicks is phase D for one worker: roll clicks for each query in
// the block, in query order, from the block's private substream
// (bit-identical to rolling off the master stream) and stage counter
// increments, click rows and events. Every placement on a page comes from
// the query's own (vertical, country) posting lists, so its vertical is
// the query's.
func (s *Sim) shardClicks(day simclock.Day, k, n int, stage bool) {
	e := s.eng
	sh := e.shards[k]
	lo, hi := e.bounds(k, n)
	var rng stats.RNG
	rng.SetState(e.states[k])
	for gi := lo; gi < hi; gi++ {
		sp := &sh.pages[gi-lo]
		pg := sp.pg
		if len(pg.Placements) == 0 {
			continue
		}
		q := &e.queries[gi]
		vi := int32(q.VerticalIdx)
		country := string(q.Country)
		sh.clickBuf = pg.RollClicks(&rng, sh.clickBuf)
		ci := 0
		for pi := range pg.Placements {
			pl := &pg.Placements[pi]
			clicked := ci < len(sh.clickBuf) && sh.clickBuf[ci] == pi
			acctID := pl.Ref.Ad.Account
			isFraud := pg.Accts[pi].Fraud
			fraudComp := sp.fraudShown > 0
			if isFraud {
				fraudComp = sp.fraudShown > 1
			}
			sh.acc.AddImpression(acctID, pl.Position, fraudComp)
			price := 0.0
			if clicked {
				ci++
				price = pl.Price
				sh.clicks = append(sh.clicks, dataset.ClickRow{
					Account:   acctID,
					Vertical:  vi,
					Match:     pl.Ref.Bid.Match,
					Country:   q.Country,
					Fraud:     isFraud,
					FraudComp: fraudComp,
					Price:     price,
				})
			}
			if stage {
				var flags uint8
				if isFraud {
					flags |= eventlog.FlagFraud
				}
				if fraudComp {
					flags |= eventlog.FlagFraudComp
				}
				if clicked {
					flags |= eventlog.FlagClicked
				}
				sh.events = append(sh.events, eventlog.Event{
					Type:     eventlog.TypeImpression,
					Day:      int32(day),
					Account:  int32(acctID),
					Vertical: vi,
					Country:  country,
					Position: int32(pl.Position),
					Match:    uint8(pl.Ref.Bid.Match),
					Flags:    flags,
					Amount:   price,
				})
			}
		}
	}
}
