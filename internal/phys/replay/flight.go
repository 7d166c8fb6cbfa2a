package replay

import (
	"errors"
	"path/filepath"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// bundleRecording is the recording's file name inside a flight bundle.
const bundleRecording = "replay.paxr"

// VerifyToBundle is Verify plus the black box: when the replay diverges
// and flightDir is set, it writes a flight bundle whose world.paxw is
// the recording's snapshot and whose replay.paxr holds the digests up
// to and including the divergent step — a recording that re-diverges at
// exactly that step, so the failure is portable to any machine. It
// returns Verify's step and error plus the bundle directory ("" when
// none was written); a bundle write failure is joined onto the error.
func VerifyToBundle(rec *Recording, threads int, flightDir string) (div int, bundle string, err error) {
	div, err = Verify(rec, threads)
	if err == nil || div < 0 || flightDir == "" {
		return div, "", err
	}
	info := obs.FlightInfo{Cause: "replay_divergence", Step: int64(div), Label: rec.Label}
	bundle, berr := obs.WriteFlightBundle(flightDir, info, rec.Snapshot, nil, nil, nil)
	if berr == nil {
		trimmed := &Recording{Label: rec.Label, Snapshot: rec.Snapshot, Digests: rec.Digests[:div+1]}
		berr = trimmed.Save(filepath.Join(bundle, bundleRecording))
	}
	if berr != nil {
		return div, "", errors.Join(err, berr)
	}
	return div, bundle, err
}

// WriteTripBundle black-boxes a world whose anomaly detector has
// tripped: obs.WriteFlightBundle's snapshot, trace, metrics and series
// files plus a replay.paxr recorded from the tripped state. Restoring
// that recording re-trips the detector on the first step; verifying it
// re-checks the post-trip digests. Recording advances w by one frame.
func WriteTripBundle(flightDir string, info obs.FlightInfo, w *world.World, tr *obs.Tracer, reg *obs.Registry, s *obs.Series) (string, error) {
	bundle, err := obs.WriteFlightBundle(flightDir, info, w.Snapshot(), tr, reg, s)
	if err != nil {
		return "", err
	}
	rec := Record(w, info.Label+" (flight)", world.StepsPerFrame)
	return bundle, rec.Save(filepath.Join(bundle, bundleRecording))
}
