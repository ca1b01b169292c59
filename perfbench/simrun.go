package main

import (
	"time"

	"repro/internal/sim"
	"repro/internal/simclock"
)

// phaseSpan names the span of each day-loop phase, indexed by sim.Phase.
var phaseSpan = [...]string{
	sim.PhaseArrivals:  "sim.arrivals",
	sim.PhaseAgents:    "sim.agents",
	sim.PhaseServing:   "sim.serving",
	sim.PhaseDetection: "sim.detection",
}

// setupSim builds a sim and runs its first phase, which seeds the
// initial population, runs the 40 pre-study days and day 0's arrivals.
// The returned duration is the workload's set-up time.
func setupSim(cfg sim.Config, tr *tracer) (*sim.Sim, time.Duration) {
	t0 := time.Now()
	sp := tr.begin("setup", 0, -1)
	s := sim.New(cfg)
	ts := time.Now()
	s.StepPhase()
	tr.record("sim.seed", 0, sp, ts, time.Now())
	tr.end(sp)
	return s, time.Since(t0)
}

// dayLoop drives a sim to its horizon from outside, through StepPhase,
// timing every simulated day and, when traced, every phase with its heap
// allocations.
type dayLoop struct {
	tr *tracer
	// dayNs is the wall time of each simulated day, including anything
	// the boundary hook did before the day (a checkpoint).
	dayNs []float64
	// serving is the summed wall time of the serving phase.
	serving time.Duration
	// allocs counts heap allocations per phase (traced only).
	allocs [len(phaseSpan)]uint64
}

// run steps s until day horizon. boundary, when non-nil, runs at each
// day boundary before that day's first phase.
func (l *dayLoop) run(s *sim.Sim, horizon simclock.Day, boundary func(simclock.Day)) {
	dayStart, daySpan := time.Now(), -1
	if s.Phase() != sim.PhaseArrivals { // set-up ran the first phase of this day
		daySpan = l.tr.begin("sim.day", int64(s.Day()), -1)
	}
	for {
		ph, day := s.Phase(), s.Day()
		if ph == sim.PhaseArrivals {
			if day >= horizon {
				break
			}
			dayStart = time.Now()
			daySpan = l.tr.begin("sim.day", int64(day), -1)
			if boundary != nil {
				boundary(day)
			}
		}
		var a0 uint64
		if l.tr != nil {
			a0 = heapAllocs()
		}
		t0 := time.Now()
		s.StepPhase()
		t1 := time.Now()
		if ph == sim.PhaseServing {
			l.serving += t1.Sub(t0)
		}
		if l.tr != nil {
			l.allocs[ph] += heapAllocs() - a0
			l.tr.record(phaseSpan[ph], int64(day), daySpan, t0, t1)
		}
		if s.Phase() == sim.PhaseArrivals {
			l.dayNs = append(l.dayNs, float64(t1.Sub(dayStart)))
			l.tr.end(daySpan)
		}
	}
}

// days is the number of simulated days the loop ran.
func (l *dayLoop) days() int { return len(l.dayNs) }

// rps is the simulator's serving throughput: simulated search queries
// served per second of the serving phase. Agents, detection, the event
// log and the report do not enter it.
func (l *dayLoop) rps(queriesPerDay int) float64 {
	return float64(queriesPerDay*l.days()) / l.serving.Seconds()
}

// latency sets p50_ms and p99_ms to the median and p99 wall time of one
// simulated day. With a few hundred days the p99 sits on the two or
// three slowest.
func (l *dayLoop) latency(m map[string]float64) {
	m["p50_ms"] = median(l.dayNs) / 1e6
	m["p99_ms"] = quantile(l.dayNs, 0.99) / 1e6
}

// layers adds the sim layer's per-layer metrics. total is the traced
// pass's set-up plus timed work, the base of every share.
func (l *dayLoop) layers(m map[string]float64, auctions int64, total time.Duration, gc float64) {
	days := float64(l.days())
	for ph, name := range phaseSpan {
		t := l.tr.total(name)
		m[name+".ms_per_day"] = millis(t) / days
		m[name+".share"] = ratio(float64(t), float64(total))
		if ph == int(sim.PhaseAgents) || ph == int(sim.PhaseServing) {
			per := l.tr.durations(name)
			q := tailQuantile(len(per))
			m[name+".day_ms_p50"] = median(per) / 1e6
			m[name+".day_ms_tail"] = quantile(per, q) / 1e6
			m[name+".allocs_per_day"] = float64(l.allocs[ph]) / days
			m["sim.day_tail_pct"] = 100 * q
		}
	}
	m["sim.days"] = days
	m["sim.serving.ns_per_auction"] = ratio(float64(l.tr.total("sim.serving")), float64(auctions))
	m["sim.seed_ms"] = millis(l.tr.total("sim.seed"))
	m["runtime.gc_cpu_share"] = gc
}
