package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/testutil"
)

// The repro workload is cmd/experiments' path without the printing: a
// MediumConfig simulation at the default worker count, then
// report.NewEnv and every report.All() experiment. It writes no event
// log. reproDays covers Y1Q2, the window most analyses read, so every
// experiment has data; reportSubset is cmd/experiments' default.
const (
	reproDays    = 200
	reportSubset = 3000
)

func reproConfig(seed uint64) sim.Config {
	cfg := sim.MediumConfig()
	cfg.Seed = seed
	cfg.Days = reproDays
	return cfg
}

// reproPass is one timed run of the reproduction after set-up.
type reproPass struct {
	res         *sim.Result
	loop        dayLoop
	wall        time.Duration
	env         time.Duration
	experiments time.Duration
}

// reproWork runs the simulation to its horizon and every experiment on
// the result, then checks each experiment's output.
func reproWork(s *sim.Sim, cfg sim.Config, tr *tracer, o *outcome) *reproPass {
	p := &reproPass{loop: dayLoop{tr: tr}}
	t0 := time.Now()
	p.loop.run(s, cfg.Days, nil)
	p.res = s.Finish()

	te := time.Now()
	sp := tr.begin("report.env", 0, -1)
	env := report.NewEnv(p.res, reportSubset, cfg.Seed^0x5eed)
	tr.end(sp)
	tx := time.Now()
	sp = tr.begin("report.experiments", 0, -1)
	exps := report.All()
	outs := make([]*report.Output, len(exps))
	for i, e := range exps {
		outs[i] = e.Run(env)
	}
	tr.end(sp)
	end := time.Now()
	p.wall, p.env, p.experiments = end.Sub(t0), tx.Sub(te), end.Sub(tx)

	for i, e := range exps {
		if !o.check(validOutput(e.ID, outs[i])) {
			fmt.Fprintf(os.Stderr, "perfbench: experiment %s: missing output or non-finite metric\n", e.ID)
		}
	}
	return p
}

// validOutput accepts an experiment output that carries its ID, some
// content, and only finite metrics. It pins no values, so intentional
// behaviour changes keep passing.
func validOutput(id string, out *report.Output) bool {
	if out == nil || out.ID != id || (len(out.Lines) == 0 && len(out.Metrics) == 0) {
		return false
	}
	for _, v := range out.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func runRepro(rc runConfig) (*outcome, error) {
	cfg := reproConfig(rc.seed)
	if rc.traced {
		return traceRepro(rc, cfg)
	}
	o := &outcome{e2e: map[string]float64{}}

	s, setup := setupSim(cfg, nil)
	runtime.GC()
	p := reproWork(s, cfg, nil, o)
	o.e2e["wall_s"] = p.wall.Seconds()
	o.e2e["rps"] = p.loop.rps(cfg.QueriesPerDay)
	o.latency = map[string]float64{}
	p.loop.latency(o.latency)
	o.e2e["peak_rss_mb"] = peakRSSMB()

	st, err := saveState(s, rc.dir)
	if err != nil {
		return nil, err
	}
	o.e2e["recover_s"] = st.recover(o).Seconds()

	o.e2e["setup_s"] = repeatSetup(setup, func() time.Duration {
		_, d := setupSim(cfg, nil)
		return d
	}).Seconds()
	return o, nil
}

// setupRepeats and recoverRepeats are how many times a run sets up and
// recovers; setup_s and recover_s are the medians.
const (
	setupRepeats   = 3
	recoverRepeats = 5
)

// repeatSetup times set-up until it has setupRepeats samples (first is
// the one the workload used) and returns their median. It runs after the
// timed work and the peak-RSS reading, so the extra set-ups touch neither.
func repeatSetup(first time.Duration, setup func() time.Duration) time.Duration {
	return medianRuns(setupRepeats, func(i int) time.Duration {
		if i == 0 {
			return first
		}
		return setup()
	})
}

// savedState is a sim checkpointed for a recovery measurement, with what
// the live sim looked like when it was saved.
type savedState struct {
	lin   sim.Lineage
	want  testutil.CollectorDigestSet
	day   simclock.Day
	phase sim.Phase
}

// saveState checkpoints s as a lineage in dir. It is not timed.
func saveState(s *sim.Sim, dir string) (*savedState, error) {
	st := &savedState{lin: sim.Lineage{Path: filepath.Join(dir, "state.ckpt")}, day: s.Day(), phase: s.Phase()}
	if err := s.SaveCheckpointLineage(st.lin, sim.LogPosition{}); err != nil {
		return nil, fmt.Errorf("save checkpoint: %w", err)
	}
	st.want = testutil.CollectorDigests(s.Collector())
	return st, nil
}

// recover times bringing the checkpoint back — sim.Lineage.Load plus
// sim.Restore — recoverRepeats times and returns the median. The first
// restored sim must sit at the saved day and phase and hold the saved
// collector digests.
func (st *savedState) recover(o *outcome) time.Duration {
	return medianRuns(recoverRepeats, func(i int) time.Duration {
		t0 := time.Now()
		rs, _, err := loadLineage(st.lin, nil)
		d := time.Since(t0)
		if !o.check(err == nil) {
			fmt.Fprintf(os.Stderr, "perfbench: recover: %v\n", err)
		} else if i == 0 {
			o.check(rs.Day() == st.day && rs.Phase() == st.phase)
			o.check(testutil.CollectorDigests(rs.Collector()) == st.want)
		}
		return d
	})
}

// loadLineage is the recovery path: load the newest valid checkpoint of
// the lineage and restore a sim from it.
func loadLineage(lin sim.Lineage, tr *tracer) (*sim.Sim, *sim.Checkpoint, error) {
	sp := tr.begin("checkpoint.load", 0, -1)
	c, _, err := lin.Load()
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("load checkpoint: %w", err)
	}
	sp = tr.begin("checkpoint.restore", 0, -1)
	rs, err := sim.Restore(c.State)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	return rs, c, nil
}

// traceRepro runs the reproduction untraced (the overhead reference) and
// then traced, followed by the serving probe on the final platform.
func traceRepro(rc runConfig, cfg sim.Config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	s, _ := setupSim(cfg, nil)
	runtime.GC()
	bp := reproWork(s, cfg, nil, o)
	base := bp.wall
	bp.loop.latency(o.layer)
	runtime.GC()

	tr := newTracer()
	s, setup := setupSim(cfg, tr)
	runtime.GC()
	r0 := readCPU()
	p := reproWork(s, cfg, tr, o)
	r1 := readCPU()

	total := setup + p.wall
	p.loop.layers(o.layer, p.res.Auctions, total, gcShare(r0, r1))
	m := o.layer
	m["setup.share"] = ratio(float64(setup), float64(total))
	m["report.env_ms"] = millis(p.env)
	m["report.experiments_ms"] = millis(p.experiments)
	m["report.share"] = ratio(float64(p.env+p.experiments), float64(total))
	accounted := m["setup.share"] + m["report.share"]
	for _, name := range phaseSpan {
		accounted += m[name+".share"]
	}
	m["trace.unaccounted_share"] = 1 - accounted
	m["trace.overhead_s"] = (p.wall - base).Seconds()
	m["trace.overhead_share"] = ratio(float64(p.wall-base), float64(base))

	servingProbe(s.Platform(), cfg, rc.seed, tr, m)
	return o, writeTrace(tr, "repro", rc)
}

// writeTrace stores the spans of a traced run and names the file on
// standard error.
func writeTrace(tr *tracer, workload string, rc runConfig) error {
	path, err := tr.write(rc.traceDir, workload, rc)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
