package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The drain/spill format: one PAXW snapshot per session plus a JSON
// manifest binding ids to scenes, shard placements and step counts.
//
//	<dir>/manifest.json
//	<dir>/<id>.paxw
//
// PAXW snapshots are bit-stable and exclude thread counts and
// observability wiring, so a restore is bit-identical to the drained
// world no matter how the restoring server is configured.
const manifestName = "manifest.json"

type spillManifest struct {
	NextID   int64        `json:"next_id"`
	Sessions []spillEntry `json:"sessions"`
}

type spillEntry struct {
	ID    string  `json:"id"`
	Scene string  `json:"scene"`
	Scale float64 `json:"scale,omitempty"`
	Shard int     `json:"shard"`
	Steps int64   `json:"steps"`
}

// spill writes every session's snapshot plus the manifest; the shards
// have stopped. Snapshots are plain writes; the manifest is written last,
// via temp file and rename, so a crash mid-spill never leaves a manifest
// pointing at missing snapshots.
func (s *Server) spill(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	man := spillManifest{NextID: s.nextID.Load()}
	for _, sh := range s.shards {
		for _, sess := range sh.sessions {
			if err := os.WriteFile(filepath.Join(dir, sess.id+".paxw"), sess.w.Snapshot(), 0o644); err != nil {
				return fmt.Errorf("spill %s: %w", sess.id, err)
			}
			man.Sessions = append(man.Sessions, spillEntry{
				ID:    sess.id,
				Scene: sess.scene,
				Scale: sess.scale,
				Shard: sh.index,
				Steps: sess.steps,
			})
			s.reg.Add(s.cSpilled, 1)
		}
	}
	sort.Slice(man.Sessions, func(i, j int) bool { return man.Sessions[i].ID < man.Sessions[j].ID })
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("spill manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("spill manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("spill manifest: %w", err)
	}
	return nil
}

// restoreSpill reloads a drain manifest: every spilled session is
// rebuilt from its snapshot and attached to its recorded shard (clamped
// if the restoring server has fewer shards). The consumed manifest is
// removed on success so a later restart without a fresh drain starts
// empty; snapshot files are left behind as inert artifacts the next
// spill overwrites. Any failure names the session and leaves the
// manifest in place for a retry.
func (s *Server) restoreSpill(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("restore spill: %w", err)
	}
	var man spillManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("restore spill manifest: %w", err)
	}
	for _, e := range man.Sessions {
		snap, err := os.ReadFile(filepath.Join(dir, e.ID+".paxw"))
		if err != nil {
			return fmt.Errorf("restore spill %s: %w", e.ID, err)
		}
		sess, err := buildSession(e.ID, e.Scene, e.Scale, snap, s.reg)
		if err != nil {
			return fmt.Errorf("restore spill %s: %w", e.ID, err)
		}
		// buildSession labels uploads "snapshot"; put the original scene
		// name and scale back so the restored fleet reads like the
		// drained one.
		sess.scene, sess.scale = e.Scene, e.Scale
		sess.steps = e.Steps
		sh := s.shards[min(max(e.Shard, 0), len(s.shards)-1)]
		if !s.register(e.ID, sh) {
			return fmt.Errorf("restore spill %s: session limit %d reached", e.ID, s.cfg.MaxSessions)
		}
		// Direct attach: the shard goroutines have not started yet.
		sh.attach(sess)
		s.reg.Add(s.cRestored, 1)
	}
	s.nextID.Store(max(s.nextID.Load(), man.NextID))
	return os.Remove(filepath.Join(dir, manifestName))
}
