package server

import (
	"maps"
	"math"
	"sync"
	"time"
)

// Per-endpoint serving metrics: request and error counts, and a
// fixed-size log2 latency histogram from which approximate percentiles
// are derived. The histogram trades exactness for a lock-held window of
// nanoseconds per request — the bucket for a latency of d nanoseconds
// is floor(log2(d)), so percentile estimates are within a factor of two
// (each estimate reports the bucket's upper bound). That is the right
// resolution for /metrics: wire latencies spread over decades
// (microseconds in-process to milliseconds cross-host), and capacity
// decisions key on the decade, not the digit.

const latencyBuckets = 64 // log2(ns): covers > 290 years

// endpointMetrics accumulates one endpoint's counters.
type endpointMetrics struct {
	mu      sync.Mutex
	count   int64
	errors  int64
	totalNs int64
	buckets [latencyBuckets]int64
}

func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	b := int(math.Log2(float64(ns)))
	if b < 0 {
		b = 0
	}
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	return b
}

func (m *endpointMetrics) record(d time.Duration, isErr bool) {
	m.mu.Lock()
	m.count++
	if isErr {
		m.errors++
	}
	m.totalNs += d.Nanoseconds()
	m.buckets[bucketOf(d)]++
	m.mu.Unlock()
}

// percentile returns the upper bound (ns) of the bucket holding the
// p-th percentile request.
func (m *endpointMetrics) percentile(p float64) int64 {
	rank := int64(math.Ceil(p / 100 * float64(m.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, n := range m.buckets {
		seen += n
		if seen >= rank {
			return int64(1) << uint(b+1)
		}
	}
	return 0
}

// EndpointSnapshot is one endpoint's /metrics entry.
type EndpointSnapshot struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	QPS    float64 `json:"qps"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
}

// metricsRegistry holds the per-endpoint metrics and the server start
// time the QPS figures are normalised against.
type metricsRegistry struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointMetrics
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{start: time.Now(), endpoints: map[string]*endpointMetrics{}}
}

func (r *metricsRegistry) endpoint(name string) *endpointMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.endpoints[name]
	if !ok {
		m = &endpointMetrics{}
		r.endpoints[name] = m
	}
	return m
}

// all copies the endpoint table, so readers iterate it unlocked.
func (r *metricsRegistry) all() map[string]*endpointMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.endpoints)
}

// snapshot renders every endpoint's counters.
func (r *metricsRegistry) snapshot() map[string]EndpointSnapshot {
	elapsed := time.Since(r.start).Seconds()
	ms := r.all()
	out := make(map[string]EndpointSnapshot, len(ms))
	for n, m := range ms {
		m.mu.Lock()
		snap := EndpointSnapshot{Count: m.count, Errors: m.errors}
		if elapsed > 0 {
			snap.QPS = float64(m.count) / elapsed
		}
		if m.count > 0 {
			snap.MeanUs = float64(m.totalNs) / float64(m.count) / 1e3
			snap.P50Us = float64(m.percentile(50)) / 1e3
			snap.P90Us = float64(m.percentile(90)) / 1e3
			snap.P99Us = float64(m.percentile(99)) / 1e3
		}
		m.mu.Unlock()
		out[n] = snap
	}
	return out
}
