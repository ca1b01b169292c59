package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/testutil"
)

// The durable workload is `fraudsim -eventlog DIR -checkpoint-every N`
// followed by recovery: a MediumConfig run that appends every event to a
// segmented log (default SyncRotate policy), rotates the log and saves a
// checkpoint lineage every durableEvery days, and then loads the newest
// checkpoint, restores a sim from it and replays the whole log.
const (
	durableDays  = 80
	durableEvery = 20
)

func durableConfig(seed uint64) sim.Config {
	cfg := sim.MediumConfig()
	cfg.Seed = seed
	cfg.Days = durableDays
	return cfg
}

// timedSink sits between the sim and the log writer in the traced pass
// and times every append. It implements eventlog.BatchSink too, so
// eventlog.AppendAll keeps delivering whole batches and the traced path
// stays the timed path.
type timedSink struct {
	dst    *eventlog.DirWriter
	tr     *tracer
	busy   time.Duration
	events int64
}

var _ eventlog.BatchSink = (*timedSink)(nil)

func (t *timedSink) Append(ev eventlog.Event) {
	t0 := time.Now()
	t.dst.Append(ev)
	t.busy += time.Since(t0)
	t.events++
}

func (t *timedSink) AppendBatch(evs []eventlog.Event) {
	t0 := time.Now()
	t.dst.AppendBatch(evs)
	t1 := time.Now()
	t.tr.record("eventlog.append_batch", int64(len(evs)), -1, t0, t1)
	t.busy += t1.Sub(t0)
	t.events += int64(len(evs))
}

// durableRun is one logged run: its sim, log writer and lineage.
type durableRun struct {
	s        *sim.Sim
	dw       *eventlog.DirWriter
	sink     *timedSink // traced pass only
	lin      sim.Lineage
	logDir   string
	tr       *tracer
	loop     dayLoop
	wall     time.Duration
	lastCkpt simclock.Day
}

// setupDurable opens the log in a fresh directory under dir and sets the
// sim up with the log attached, as fraudsim does.
func setupDurable(cfg sim.Config, dir string, tr *tracer) (*durableRun, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	r := &durableRun{
		lin:    sim.Lineage{Path: filepath.Join(dir, "run.ckpt")},
		logDir: filepath.Join(dir, "log"),
		tr:     tr,
		loop:   dayLoop{tr: tr},
	}
	dw, err := eventlog.NewDirWriter(r.logDir)
	if err != nil {
		return nil, 0, err
	}
	r.dw = dw
	cfg.Events = dw
	if tr != nil {
		r.sink = &timedSink{dst: dw, tr: tr}
		cfg.Events = r.sink
	}
	var setup time.Duration
	r.s, setup = setupSim(cfg, tr)
	runtime.GC()
	return r, setup, nil
}

// work runs the logged sim to its horizon, checkpointing every
// durableEvery days, and seals the log.
func (r *durableRun) work(horizon simclock.Day, o *outcome) {
	t0 := time.Now()
	r.loop.run(r.s, horizon, func(day simclock.Day) {
		if day > 0 && day%durableEvery == 0 {
			if err := r.checkpoint(day); !o.check(err == nil) {
				fmt.Fprintf(os.Stderr, "perfbench: checkpoint at day %d: %v\n", day, err)
			}
		}
	})
	r.s.Finish()
	sp := r.tr.begin("eventlog.close", 0, -1)
	err := r.dw.Close()
	r.tr.end(sp)
	r.wall = time.Since(t0)
	if !o.check(err == nil) {
		fmt.Fprintf(os.Stderr, "perfbench: event log: %v\n", err)
	}
}

// checkpoint rotates the log to a segment boundary and saves the sim
// against it as the lineage's newest generation.
func (r *durableRun) checkpoint(day simclock.Day) error {
	sp := r.tr.begin("eventlog.rotate", int64(day), -1)
	err := r.dw.Rotate()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	pos := sim.LogPosition{NextSegment: r.dw.NextSegment(), Events: r.dw.Events()}
	sp = r.tr.begin("checkpoint.save", int64(day), -1)
	err = r.s.SaveCheckpointLineage(r.lin, pos)
	r.tr.end(sp)
	if err == nil {
		r.lastCkpt = day
	}
	return err
}

// recover drops the live sim and times recovery from disk alone —
// sim.Lineage.Load + sim.Restore + dataset.ReplayDir of the whole log —
// recoverRepeats times, returning the median. The first restored sim
// must resume at the newest checkpoint's day, and the first replayed
// collector must match the live run's digests.
func (r *durableRun) recover(cfg sim.Config, o *outcome) time.Duration {
	want := testutil.CollectorDigests(r.s.Collector())
	r.s = nil
	return medianRuns(recoverRepeats, func(i int) time.Duration {
		t0 := time.Now()
		rs, _, err := loadLineage(r.lin, r.tr)
		sp := r.tr.begin("eventlog.replay", 0, -1)
		col, rerr := dataset.ReplayDir(r.logDir, cfg.Windows, cfg.SampleWindow)
		r.tr.end(sp)
		d := time.Since(t0)
		if i > 0 {
			return d
		}
		if o.check(err == nil) {
			o.check(rs.Day() == r.lastCkpt && rs.Phase() == sim.PhaseArrivals)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: recover: %v\n", err)
		}
		if o.check(rerr == nil) {
			if !o.check(testutil.CollectorDigests(col) == want) {
				fmt.Fprintln(os.Stderr, "perfbench: replayed collector digests differ from the live run")
			}
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: replay: %v\n", rerr)
		}
		return d
	})
}

func runDurable(rc runConfig) (*outcome, error) {
	cfg := durableConfig(rc.seed)
	if rc.traced {
		return traceDurable(rc, cfg)
	}
	o := &outcome{e2e: map[string]float64{}}
	dir := filepath.Join(rc.dir, "durable")
	r, setup, err := setupDurable(cfg, dir, nil)
	if err != nil {
		return nil, err
	}
	r.work(cfg.Days, o)
	o.e2e["wall_s"] = r.wall.Seconds()
	o.e2e["rps"] = r.loop.rps(cfg.QueriesPerDay)
	o.latency = map[string]float64{}
	r.loop.latency(o.latency)
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["recover_s"] = r.recover(cfg, o).Seconds()

	var setupErr error
	o.e2e["setup_s"] = repeatSetup(setup, func() time.Duration {
		r, d, err := setupDurable(cfg, dir, nil)
		if err == nil {
			err = r.dw.Close()
		}
		if err != nil {
			setupErr = err
		}
		return d
	}).Seconds()
	return o, setupErr
}

// traceDurable runs the logged workload untraced (the overhead
// reference) and then traced, with recovery traced as well.
func traceDurable(rc runConfig, cfg sim.Config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	dir := filepath.Join(rc.dir, "durable")
	r, _, err := setupDurable(cfg, dir, nil)
	if err != nil {
		return nil, err
	}
	r.work(cfg.Days, o)
	base := r.wall
	r.loop.latency(o.layer)
	runtime.GC()

	tr := newTracer()
	r, setup, err := setupDurable(cfg, dir, tr)
	if err != nil {
		return nil, err
	}
	r0 := readCPU()
	r.work(cfg.Days, o)
	r1 := readCPU()
	auctions := r.s.Finish().Auctions
	events, logBytes := r.dw.Events(), r.dw.Bytes()
	r.recover(cfg, o)

	total := setup + r.wall
	r.loop.layers(o.layer, auctions, total, gcShare(r0, r1))
	m := o.layer
	m["setup.share"] = ratio(float64(setup), float64(total))
	m["eventlog.append_ns_per_event"] = ratio(float64(r.sink.busy), float64(r.sink.events))
	m["eventlog.append_share"] = ratio(float64(r.sink.busy), float64(total))
	m["eventlog.bytes_per_event"] = ratio(float64(logBytes), float64(events))
	m["eventlog.rotate_ms"] = median(tr.durations("eventlog.rotate")) / 1e6
	m["eventlog.replay_ns_per_event"] = ratio(median(tr.durations("eventlog.replay")), float64(events))
	m["checkpoint.save_ms"] = median(tr.durations("checkpoint.save")) / 1e6
	m["checkpoint.load_ms"] = median(tr.durations("checkpoint.load")) / 1e6
	m["checkpoint.restore_ms"] = median(tr.durations("checkpoint.restore")) / 1e6
	if fi, err := os.Stat(r.lin.Path); err == nil {
		m["checkpoint.bytes"] = float64(fi.Size())
	}
	// Appends run inside the phases; rotations, saves and the final
	// seal run between them.
	boundary := tr.total("eventlog.rotate") + tr.total("checkpoint.save") + tr.total("eventlog.close")
	m["checkpoint.share"] = ratio(float64(boundary), float64(total))
	accounted := m["setup.share"] + m["checkpoint.share"]
	for _, name := range phaseSpan {
		accounted += m[name+".share"]
	}
	m["trace.unaccounted_share"] = 1 - accounted
	m["trace.overhead_s"] = (r.wall - base).Seconds()
	m["trace.overhead_share"] = ratio(float64(r.wall-base), float64(base))
	return o, writeTrace(tr, "durable", rc)
}
