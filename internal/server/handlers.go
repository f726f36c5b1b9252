package server

import (
	"fmt"
	"net/http"
	"time"
)

// createTenantRequest creates a federation from a built-in fixture or
// from uploaded TM specifications (members in attach order; the first
// is the seed and takes no integration spec).
type createTenantRequest struct {
	Name    string             `json:"name"`
	Fixture string             `json:"fixture,omitempty"`
	Members []uploadedMemberIn `json:"members,omitempty"`
}

type uploadedMemberIn struct {
	Spec        string `json:"spec"`
	Integration string `json:"integration,omitempty"`
}

type tenantInfo struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
	Classes []string `json:"classes,omitempty"`
}

func (s *Server) infoFor(t *tenant) tenantInfo {
	info := tenantInfo{Name: t.name, Members: t.fed.Members()}
	if e := t.fed.Engine(); e != nil {
		info.Classes = e.Classes()
	}
	return info
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) error {
	var req createTenantRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	switch {
	case req.Fixture != "" && len(req.Members) > 0:
		return badRequest("supply either fixture or members, not both")
	case req.Fixture == "" && len(req.Members) == 0:
		return badRequest("supply a fixture name or uploaded members")
	}
	t, err := s.buildTenant(r.Context(), req.Name, tenantSource{Fixture: req.Fixture, Members: req.Members})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, s.infoFor(t))
	return nil
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) error {
	tenants := s.tenantList()
	infos := make([]tenantInfo, len(tenants))
	for i, t := range tenants {
		infos[i] = s.infoFor(t)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
	return nil
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("tenant")
	s.mu.Lock()
	t := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if t == nil {
		return fmt.Errorf("tenant %q: %w", name, ErrUnknownTenant)
	}
	t.batch.close()
	// A durable tenant's data directory survives deletion (removing
	// acknowledged history is an operator action, not an API one);
	// re-creating the tenant with the same recipe recovers it.
	t.shutdownDurability(s.logf)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
	return nil
}

// queryRequest carries the textual query form, e.g.
// "select title, rating from Proceedings where rating >= 7".
type queryRequest struct {
	Q string `json:"q"`
}

type queryResponse struct {
	Rows  []map[string]WireValue `json:"rows"`
	Stats WireQueryStats         `json:"stats"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req queryRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	rows, stats, err := s.query(r.Context(), r.PathValue("tenant"), req.Q)
	if err != nil {
		return err
	}
	resp := queryResponse{Rows: make([]map[string]WireValue, len(rows)), Stats: EncodeQueryStats(stats)}
	for i, row := range rows {
		resp.Rows[i] = EncodeRow(row)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// txRequest carries a mutation batch. With validate_only the batch is
// checked against the derived global constraints and NOT shipped — the
// paper's validation role exposed as a dry run.
type wireTxRequest struct {
	Ops          []WireMutation `json:"ops"`
	ValidateOnly bool           `json:"validate_only,omitempty"`
}

type txResponse struct {
	Applied       int               `json:"applied"`
	ValidateStats WireValidateStats `json:"validate_stats"`
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) error {
	var req wireTxRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	ops, err := DecodeMutations(req.Ops)
	if err != nil {
		return badRequest("%v", err)
	}
	applied, vstats, err := s.tx(r.Context(), r.PathValue("tenant"), ops, req.ValidateOnly)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, txResponse{Applied: applied, ValidateStats: EncodeValidateStats(vstats)})
	return nil
}

// attachRequest attaches a member at runtime: a named catalog member
// (fixture_member) or uploaded TM specs.
type attachRequest struct {
	FixtureMember string `json:"fixture_member,omitempty"`
	Spec          string `json:"spec,omitempty"`
	Integration   string `json:"integration,omitempty"`
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) error {
	t, err := s.tenantByName(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	if t.dur != nil {
		return badRequest("tenant %s is durable; its member recipe is fixed at creation (a member attached now would be missing from the recovery rebuild) — create a new tenant with the full member set", t.name)
	}
	var req attachRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	var m fixtureMember
	switch {
	case req.FixtureMember != "" && req.Spec != "":
		return badRequest("supply either fixture_member or spec, not both")
	case req.FixtureMember != "":
		fm, err := builtinAttachable(req.FixtureMember)
		if err != nil {
			return badRequest("%v", err)
		}
		m = fm
	case req.Spec != "":
		fm, err := parseUploadedMember(req.Spec, req.Integration)
		if err != nil {
			return badRequest("%v", err)
		}
		m = fm
	default:
		return badRequest("supply fixture_member or spec")
	}
	if err := t.fed.AttachContext(r.Context(), m.spec, m.store, m.integration); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	t.memberVer.Add(1)
	writeJSON(w, http.StatusOK, s.infoFor(t))
	return nil
}

type detachRequest struct {
	Member string `json:"member"`
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) error {
	t, err := s.tenantByName(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	if t.dur != nil {
		return badRequest("tenant %s is durable; its member recipe is fixed at creation — create a new tenant with the reduced member set", t.name)
	}
	var req detachRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	if req.Member == "" {
		return badRequest("member name required")
	}
	if err := t.fed.DetachContext(r.Context(), req.Member); err != nil {
		return badRequest("detach: %v", err)
	}
	t.memberVer.Add(1)
	writeJSON(w, http.StatusOK, s.infoFor(t))
	return nil
}

func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) error {
	_, e, err := s.engineOf(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"classes": e.Classes()})
	return nil
}

// tenantCacheStats is one tenant's engine-counter entry in /metrics:
// the plan-cache, solver, compile and publication counters of its
// engine's CacheStats.
type tenantCacheStats struct {
	PlanHits      int64   `json:"plan_hits"`
	PlanMisses    int64   `json:"plan_misses"`
	PlanHitRate   float64 `json:"plan_hit_rate"`
	SolverQueries int64   `json:"solver_queries"`
	Compiles      int64   `json:"compiles"`
	Publishes     int64   `json:"publishes"`
}

// handleMetrics renders per-endpoint latency/QPS counters and every
// tenant's engine cache stats. It bypasses admission control: the
// saturated server is exactly the one whose metrics must stay
// reachable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	perTenant := map[string]tenantCacheStats{}
	for _, t := range s.tenantList() {
		e := t.fed.Engine()
		if e == nil {
			continue
		}
		cs := e.CacheStats()
		perTenant[t.name] = tenantCacheStats{
			PlanHits:      cs.PlanHits,
			PlanMisses:    cs.PlanMisses,
			PlanHitRate:   cs.PlanHitRate(),
			SolverQueries: cs.SolverQueries,
			Compiles:      cs.Compiles,
			Publishes:     cs.Publishes,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":  time.Since(s.metrics.start).Seconds(),
		"draining":  s.draining.Load(),
		"in_flight": len(s.sem),
		"endpoints": s.metrics.snapshot(),
		"tenants":   perTenant,
	})
}
