package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Registry is a named collection of metrics. Lookups are get-or-create
// and idempotent, so packages can resolve their metric handles in
// package-level var initialisers without ordering concerns. Safe for
// concurrent use; the lookup path takes a read lock only.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-global registry every daemon exposes on its
// debug listener. Package-level helpers resolve against it.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later lookups return the existing
// histogram regardless of bounds — the first registration wins.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Reset zeroes every registered metric in place (handles stay valid).
// Intended for tests and for delimiting measurement intervals; not for
// production counters, which monitoring expects to be monotonic.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// BucketCount is one cumulative histogram bucket: the number of
// observations with value <= LE.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON encodes le as a string ("+Inf" for the overflow bucket):
// encoding/json rejects non-finite numbers, and every histogram's last
// bucket bound is +Inf.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}{LE: promFloat(b.LE), Count: b.Count})
}

// UnmarshalJSON accepts le as either the string form MarshalJSON emits
// or a plain number (hand-written fixtures).
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var aux struct {
		LE    any   `json:"le"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	b.Count = aux.Count
	switch le := aux.LE.(type) {
	case nil:
		b.LE = 0
	case float64:
		b.LE = le
	case string:
		switch le {
		case "+Inf", "Inf":
			b.LE = math.Inf(1)
		case "-Inf":
			b.LE = math.Inf(-1)
		default:
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("obs: bucket le %q: %w", le, err)
			}
			b.LE = f
		}
	default:
		return fmt.Errorf("obs: bucket le has unexpected type %T", aux.LE)
	}
	return nil
}

// HistogramSnapshot is a point-in-time view of a histogram with
// cumulative bucket counts (Prometheus semantics).
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// encoding (/metrics.json) or diffing across an interval.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Flatten folds a snapshot into a flat name→value map: counters and
// gauges directly, histograms as <name>_count and <name>_sum. The
// benchmark (bench/) differences two of these across a phase.
func (s Snapshot) Flatten() map[string]float64 {
	m := make(map[string]float64, len(s.Counters)+len(s.Gauges)+2*len(s.Histograms))
	for name, v := range s.Counters {
		m[name] = float64(v)
	}
	for name, v := range s.Gauges {
		m[name] = float64(v)
	}
	for name, h := range s.Histograms {
		m[name+"_count"] = float64(h.Count)
		m[name+"_sum"] = h.Sum
	}
	return m
}

// sortedNames returns the keys of a metric map in stable order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Package-level helpers against the Default registry.

// GetCounter returns the named counter from the Default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetGauge returns the named gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram returns the named histogram from the Default registry.
func GetHistogram(name string, bounds []float64) *Histogram {
	return Default.Histogram(name, bounds)
}
