// Package replay implements record-replay verification for the
// simulation: a Recording captures a world snapshot plus the per-step
// profile digests of the run that followed it, and Verify re-steps the
// snapshot — at any thread count — checking that every step reproduces
// the recorded digest. The first mismatch pinpoints the step where a
// nondeterminism bug (or a behavior change) first became observable.
package replay

import (
	"fmt"
	"os"

	"github.com/parallax-arch/parallax/internal/phys/enc"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Magic and version of the recording file format ("PAXR", little
// endian). The payload reuses the world snapshot encoding and is
// protected by the same CRC32 scheme.
const (
	Magic   = uint32('P') | uint32('A')<<8 | uint32('X')<<16 | uint32('R')<<24
	Version = 1
)

// Recording is a deterministic replay artifact: the full world state at
// the start of the recorded window plus one profile digest per step.
type Recording struct {
	// Label is free-form provenance (benchmark name, scale, flags).
	Label string
	// Snapshot is the world state the digests were recorded from.
	Snapshot []byte
	// Digests holds StepProfile.Digest() for each recorded step.
	Digests []uint64
}

// Record snapshots w and then steps it n times, capturing the profile
// digest of every step. The world is advanced by n steps as a side
// effect — the recording plays forward from where w was.
func Record(w *world.World, label string, n int) *Recording {
	rec := &Recording{
		Label:    label,
		Snapshot: w.Snapshot(),
		Digests:  make([]uint64, 0, n),
	}
	for i := 0; i < n; i++ {
		w.Step()
		rec.Digests = append(rec.Digests, w.Profile.Digest())
	}
	return rec
}

// World returns a fresh world restored from the recording's snapshot.
func (rec *Recording) World() (*world.World, error) {
	w := world.New()
	if err := w.Restore(rec.Snapshot); err != nil {
		return nil, err
	}
	return w, nil
}

// Verify restores the recording into a fresh world with the given
// thread count and re-steps it, comparing digests. It returns the
// zero-based index of the first divergent step, or -1 if the replay
// matched end to end.
func Verify(rec *Recording, threads int) (int, error) {
	w, err := rec.World()
	if err != nil {
		return -1, fmt.Errorf("replay: restore: %w", err)
	}
	w.Threads = threads
	for i, want := range rec.Digests {
		w.Step()
		if got := w.Profile.Digest(); got != want {
			return i, fmt.Errorf("replay: step %d diverged: digest %016x, recorded %016x", i, got, want)
		}
	}
	return -1, nil
}

// code is the recording format after the frame's magic and version:
// label, snapshot, digests.
func (rec *Recording) code(c *enc.Codec) {
	c.String(&rec.Label)
	c.Bytes(&rec.Snapshot)
	enc.Slice(c, &rec.Digests, 8, "digest", func(_ int, d *uint64) { c.U64(d) })
}

// Encode serializes the recording.
func (rec *Recording) Encode() []byte {
	c := enc.Begin(Magic, Version, 8+len(rec.Label)+len(rec.Snapshot)+4+8*len(rec.Digests))
	rec.code(c)
	return c.Seal()
}

// Decode parses a recording, validating checksum, magic and version.
func Decode(data []byte) (*Recording, error) {
	c := enc.Open(data, Magic, Version, "replay: recording")
	rec := &Recording{}
	rec.code(c)
	if err := c.End(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Save writes the recording to a file.
func (rec *Recording) Save(path string) error {
	return os.WriteFile(path, rec.Encode(), 0o644)
}

// Load reads a recording from a file.
func Load(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
