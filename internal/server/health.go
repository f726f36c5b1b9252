package server

import (
	"context"
	"math"
	"net/http"
	"time"

	"interopdb/internal/view"
)

// Member-health surfacing and the background reconciler: the wire face
// of the engine's fault-handling layer (internal/view health.go,
// journal.go, reconcile.go). GET /v1/{tenant}/health reports per-member
// breaker state, the pending commit journal and the last reconcile
// pass; the reconciler drives Engine.Reconcile on a ticker so stranded
// partial commits complete (or compensate) without any client action.

// wireMemberHealth is one member's entry in the health response.
type wireMemberHealth struct {
	Member              string `json:"member"`
	State               string `json:"state"`
	ConsecutiveOutages  int    `json:"consecutive_outages,omitempty"`
	CooldownRemainingMs int64  `json:"cooldown_remaining_ms,omitempty"`
	PendingEntries      int    `json:"pending_entries,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// wireJournalEntry is one pending commit-journal entry on the wire.
type wireJournalEntry struct {
	Seq       uint64   `json:"seq"`
	AgeMs     int64    `json:"age_ms"`
	Mode      string   `json:"mode"`
	Committed []string `json:"committed,omitempty"`
	Pending   []string `json:"pending,omitempty"`
	LastError string   `json:"last_error,omitempty"`
}

// wireFaultStats mirrors view.FaultStats.
type wireFaultStats struct {
	TransientFaults      int64 `json:"transient_faults"`
	Retries              int64 `json:"retries"`
	AmbiguousResolved    int64 `json:"ambiguous_resolved"`
	Outages              int64 `json:"outages"`
	QuarantineRejects    int64 `json:"quarantine_rejects"`
	PartialCommits       int64 `json:"partial_commits"`
	CompensatedInline    int64 `json:"compensated_inline"`
	ReconcileCompleted   int64 `json:"reconcile_completed"`
	ReconcileCompensated int64 `json:"reconcile_compensated"`
}

// healthResponse is the GET /v1/{tenant}/health body.
type healthResponse struct {
	Tenant        string             `json:"tenant"`
	Healthy       bool               `json:"healthy"`
	Degraded      []string           `json:"degraded,omitempty"`
	Members       []wireMemberHealth `json:"members"`
	JournalDepth  int                `json:"journal_depth"`
	Journal       []wireJournalEntry `json:"journal,omitempty"`
	LastReconcile string             `json:"last_reconcile,omitempty"`
	Reconciles    int64              `json:"reconciles"`
	Faults        wireFaultStats     `json:"faults"`
	// Durability is present on durable tenants only: boot-time recovery
	// outcome plus live WAL state (see durability.go).
	Durability *wireDurability `json:"durability,omitempty"`
}

func encodeHealth(tenantName string, rep view.HealthReport) healthResponse {
	resp := healthResponse{
		Tenant:       tenantName,
		Healthy:      rep.Healthy,
		Degraded:     rep.Degraded,
		JournalDepth: rep.JournalDepth,
		Reconciles:   rep.Reconciles,
		Faults: wireFaultStats{
			TransientFaults:      rep.Faults.TransientFaults,
			Retries:              rep.Faults.Retries,
			AmbiguousResolved:    rep.Faults.AmbiguousResolved,
			Outages:              rep.Faults.Outages,
			QuarantineRejects:    rep.Faults.QuarantineRejects,
			PartialCommits:       rep.Faults.PartialCommits,
			CompensatedInline:    rep.Faults.CompensatedInline,
			ReconcileCompleted:   rep.Faults.ReconcileCompleted,
			ReconcileCompensated: rep.Faults.ReconcileCompensated,
		},
	}
	for _, m := range rep.Members {
		resp.Members = append(resp.Members, wireMemberHealth{
			Member:              m.Member,
			State:               m.State.String(),
			ConsecutiveOutages:  m.ConsecutiveOutages,
			CooldownRemainingMs: m.CooldownRemaining.Milliseconds(),
			PendingEntries:      m.PendingEntries,
			LastError:           m.LastError,
		})
	}
	for _, ent := range rep.Entries {
		resp.Journal = append(resp.Journal, wireJournalEntry{
			Seq:       ent.Seq,
			AgeMs:     ent.Age.Milliseconds(),
			Mode:      ent.Mode,
			Committed: ent.Committed,
			Pending:   ent.Pending,
			LastError: ent.LastError,
		})
	}
	if !rep.LastReconcile.IsZero() {
		resp.LastReconcile = rep.LastReconcile.UTC().Format(time.RFC3339Nano)
	}
	return resp
}

// handleHealth serves GET /v1/{tenant}/health. Like /metrics it bypasses
// admission control and drain refusal: a saturated or degraded server is
// exactly the one whose health must stay reachable, and the engine-side
// report is lock-free, so this path serves even while a Ship call is
// stuck mid-outage holding the write lock.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.endpoint("health")
	t0 := time.Now()
	t, err := s.tenantByName(r.PathValue("tenant"))
	if err != nil {
		m.record(time.Since(t0), true)
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		return
	}
	e := t.fed.Engine()
	if e == nil {
		// Fewer than two members: nothing integrated, nothing to break.
		m.record(time.Since(t0), false)
		writeJSON(w, http.StatusOK, healthResponse{Tenant: t.name, Healthy: true})
		return
	}
	resp := encodeHealth(t.name, e.Health())
	resp.Durability = encodeDurability(t)
	m.record(time.Since(t0), false)
	writeJSON(w, http.StatusOK, resp)
}

// slowestP90 returns the worst per-endpoint p90 latency observed so far
// (zero before any traffic) — the basis for load-derived Retry-After
// hints.
func (r *metricsRegistry) slowestP90() time.Duration {
	var worst int64
	for _, m := range r.all() {
		m.mu.Lock()
		if m.count > 0 {
			if p := m.percentile(90); p > worst {
				worst = p
			}
		}
		m.mu.Unlock()
	}
	return time.Duration(worst)
}

// retryAfterSeconds derives the Retry-After hint for refused requests
// from live load instead of a constant: the p90 handler latency bounds
// how soon an admission slot frees, scaled by how full the admission
// queue is. Clamped to [1s, 30s]; 1s before any traffic has been
// observed.
func (s *Server) retryAfterSeconds() int {
	p90 := s.metrics.slowestP90()
	// A fuller queue means more requests ahead of the retry.
	est := p90 + time.Duration(len(s.sem))*p90/time.Duration(cap(s.sem))
	return min(retryAfterForOutage(est), 30)
}

// retryAfterForOutage converts a breaker cool-down hint into Retry-After
// seconds (at least 1 — zero would invite an immediate retry storm).
func retryAfterForOutage(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// DefaultReconcileInterval is the background reconcile cadence when
// Config.ReconcileInterval is zero.
const DefaultReconcileInterval = 500 * time.Millisecond

// reconcileTenants drives one reconcile pass over every tenant that
// needs it (pending journal entries, or quarantined members whose
// breaker a liveness probe could close).
func (s *Server) reconcileTenants() {
	for _, t := range s.tenantList() {
		e := t.fed.Engine()
		if e == nil {
			continue
		}
		rep := e.Health()
		if rep.JournalDepth == 0 && len(rep.Degraded) == 0 {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rs, err := e.Reconcile(ctx)
		cancel()
		if err != nil {
			s.logf("reconcile %s: %v", t.name, err)
			continue
		}
		if rs.Completed+rs.Compensated+rs.Probed > 0 {
			s.logf("reconcile %s: completed=%d compensated=%d probed=%d pending=%d",
				t.name, rs.Completed, rs.Compensated, rs.Probed, rs.Pending)
		}
	}
}
