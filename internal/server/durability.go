package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"interopdb"
	"interopdb/internal/store"
)

// Durable tenant hosting. With Config.DataDir set, every tenant owns a
// data directory DataDir/<name> holding its write-ahead log, its
// checkpoints, and a manifest recording how its member stores were
// built. Creating a tenant over an existing directory is a restart: the
// members are rebuilt from the same recipe, the checkpoint + WAL tail
// are replayed into them, and the federation boots warm (imported memo,
// verified derivation, re-planned query shapes) before the tenant is
// registered. A directory initialised for a different member set is
// refused — recovering foreign state would silently serve wrong data.

// DefaultCheckpointInterval is the background checkpoint cadence when
// Config.CheckpointInterval is zero on a durable server.
const DefaultCheckpointInterval = 30 * time.Second

// manifestFileName sits beside wal.log / checkpoint.db in a tenant's
// data directory.
const manifestFileName = "manifest.json"

// tenantSource is the recipe for a tenant's member stores — exactly
// one of Fixture or Members. A durable tenant's manifest persists it so
// a restart rebuilds the same stores for recovery to replay into (the
// "built exactly as the original boot built them" contract of
// Durability.RestoreStores).
type tenantSource struct {
	Fixture string             `json:"fixture,omitempty"`
	Members []uploadedMemberIn `json:"members,omitempty"`
}

// build materialises the members: fresh stores, deterministic content.
func (src tenantSource) build() ([]fixtureMember, error) {
	if src.Fixture != "" {
		return builtinFixture(src.Fixture)
	}
	var out []fixtureMember
	for i, m := range src.Members {
		fm, err := parseUploadedMember(m.Spec, m.Integration)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		out = append(out, fm)
	}
	return out, nil
}

// matches reports whether a persisted manifest describes the same
// member recipe as a creation request.
func (src tenantSource) matches(other tenantSource) bool {
	return src.Fixture == other.Fixture && slices.Equal(src.Members, other.Members)
}

// manifest is the on-disk tenant recipe.
type manifest struct {
	Version int          `json:"version"`
	Source  tenantSource `json:"source"`
}

func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFileName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tenant manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("tenant manifest: %w", err)
	}
	return &m, nil
}

// writeManifest replaces the tenant's manifest atomically: a crash
// mid-rewrite leaves the previous manifest, never an empty or torn one
// that would fail the next boot and strand the tenant's WAL and
// checkpoint.
func writeManifest(dir string, src tenantSource) error {
	data, err := json.MarshalIndent(manifest{Version: 1, Source: src}, "", "  ")
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(filepath.Join(dir, manifestFileName), append(data, '\n')); err != nil {
		return fmt.Errorf("tenant manifest: %w", err)
	}
	return nil
}

// buildDurableTenant boots (cold or warm) a tenant over its data
// directory. The boot follows the Durability protocol: open the
// directory, take the member stores freshly built from the recipe,
// replay checkpoint + WAL tail into them, integrate the federation with
// the recovered memo, then Finish — verify the derivation, warm the
// plan cache, and interpose WAL logging so every subsequent
// acknowledged batch is durable.
func (s *Server) buildDurableTenant(ctx context.Context, name string, src tenantSource, members []fixtureMember) (*tenant, error) {
	if len(members) < 2 {
		return nil, badRequest("a durable tenant needs at least two members: one member cannot integrate, so there is no derived state to recover to")
	}
	dir := filepath.Join(s.cfg.DataDir, name)
	if man, err := readManifest(dir); err != nil {
		return nil, err
	} else if man != nil && !man.Source.matches(src) {
		return nil, badRequest("data directory %s was initialised for a different member set; refusing to recover foreign state", dir)
	}

	dur, err := interopdb.OpenDurability(dir, interopdb.DurabilityOptions{})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			_ = dur.Close()
		}
	}()

	stores := make([]*interopdb.Store, len(members))
	for i, m := range members {
		stores[i] = m.store
	}
	if err := dur.RestoreStores(stores...); err != nil {
		return nil, err
	}
	fed, err := buildFederation(ctx, members, interopdb.PipelineOptions{Memo: dur.Memo()})
	if err != nil {
		return nil, err
	}
	recovery, err := dur.Finish(ctx, fed)
	if err != nil {
		return nil, err
	}
	if err := writeManifest(dir, src); err != nil {
		return nil, err
	}

	t := newTenant(name, fed)
	t.dur = dur
	t.recovery = recovery
	ok = true
	return t, nil
}

// TenantRecovery reports what boot-time recovery did for a durable
// tenant; ok is false for unknown or ephemeral tenants.
func (s *Server) TenantRecovery(name string) (interopdb.RecoveryInfo, bool) {
	t, err := s.tenantByName(name)
	if err != nil || t.dur == nil {
		return interopdb.RecoveryInfo{}, false
	}
	return t.recovery, true
}

// checkpointTenants writes one checkpoint per durable tenant — the
// background checkpointer's pass, bounding the WAL tail the next crash
// recovery replays. Failures are logged, not fatal: the WAL remains the
// durable truth, and the next boot simply replays a longer tail.
func (s *Server) checkpointTenants() {
	for _, t := range s.tenantList() {
		if err := t.checkpoint(); err != nil {
			s.logf("checkpoint %s: %v", t.name, err)
		}
	}
}

// wireTailDamage mirrors store.TailDamage on the health wire.
type wireTailDamage struct {
	Offset    int64  `json:"offset"`
	Reason    string `json:"reason"`
	LostBytes int64  `json:"lost_bytes"`
}

// wireDurability is the durability section of the health response:
// what boot-time recovery did, plus the log's live state.
type wireDurability struct {
	ColdStart          bool            `json:"cold_start"`
	RestoredMembers    int             `json:"restored_members,omitempty"`
	RestoredObjects    int             `json:"restored_objects,omitempty"`
	ReplayedCommits    int             `json:"replayed_commits,omitempty"`
	CompletedIntents   int             `json:"completed_intents,omitempty"`
	AbortedIntents     int             `json:"aborted_intents,omitempty"`
	CompensatedIntents int             `json:"compensated_intents,omitempty"`
	TailDamage         *wireTailDamage `json:"tail_damage,omitempty"`
	MemoEntries        int             `json:"memo_entries,omitempty"`
	MemoDiscarded      bool            `json:"memo_discarded,omitempty"`
	DerivationVerified bool            `json:"derivation_verified,omitempty"`
	PlansWarmed        int             `json:"plans_warmed,omitempty"`
	PlansSkipped       int             `json:"plans_skipped,omitempty"`
	WALLastLSN         uint64          `json:"wal_last_lsn"`
	WALSealed          string          `json:"wal_sealed,omitempty"`
}

// encodeDurability builds the health section; nil for ephemeral
// tenants.
func encodeDurability(t *tenant) *wireDurability {
	if t.dur == nil {
		return nil
	}
	info := t.recovery
	d := &wireDurability{
		ColdStart:          info.ColdStart,
		RestoredMembers:    info.Replay.RestoredMembers,
		RestoredObjects:    info.Replay.RestoredObjects,
		ReplayedCommits:    info.Replay.ReplayedCommits,
		CompletedIntents:   info.Replay.CompletedIntents,
		AbortedIntents:     info.Replay.AbortedIntents,
		CompensatedIntents: info.Replay.CompensatedIntents,
		MemoEntries:        info.MemoEntries,
		MemoDiscarded:      info.MemoDiscarded,
		DerivationVerified: info.DerivationVerified,
		PlansWarmed:        info.PlansWarmed,
		PlansSkipped:       info.PlansSkipped,
		WALLastLSN:         t.dur.WAL().LastLSN(),
	}
	if td := info.TailDamage; td != nil {
		d.TailDamage = &wireTailDamage{Offset: td.Offset, Reason: td.Reason, LostBytes: td.LostBytes}
	}
	if err := t.dur.WAL().Sealed(); err != nil {
		d.WALSealed = err.Error()
	}
	return d
}
