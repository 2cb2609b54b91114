package metrics

import (
	"ndpbridge/internal/sim"
)

// Sampler snapshots every registered gauge into a per-gauge time series on a
// fixed simulated-cycle grid. It observes through the engine's Every hook and
// schedules no events, so sampling leaves the run itself unchanged.
type Sampler struct {
	// gauges[i] is sampled into out[i]; both are bound at start, so a gauge
	// registered later is never half-sampled.
	gauges []*Gauge
	out    []*Series
}

// StartSampler samples all currently-registered gauges every interval
// cycles, the first sample one interval from now; each sample records its
// grid cycle. It returns nil (no sampling) on a nil registry or engine, when
// no gauges are registered, or when the interval is zero.
func (r *Registry) StartSampler(eng *sim.Engine, interval sim.Cycles) *Sampler {
	if r == nil || eng == nil || interval == 0 || len(r.gauges) == 0 {
		return nil
	}
	s := &Sampler{gauges: append([]*Gauge(nil), r.gauges...)}
	s.out = make([]*Series, len(s.gauges))
	for i, g := range s.gauges {
		ser := r.series[g.name]
		if ser == nil {
			ser = &Series{Interval: uint64(interval)}
			r.series[g.name] = ser
		}
		s.out[i] = ser
	}
	eng.Every(interval, s.sample)
	return s
}

func (s *Sampler) sample(at sim.Cycles) {
	for i, g := range s.gauges {
		ser := s.out[i]
		ser.Cycles = append(ser.Cycles, uint64(at))
		ser.Values = append(ser.Values, g.Value())
	}
}
