package broadphase

// Snapshot support. SweepAndPrune carries cross-step state that is
// observable in its outputs: the persistent sweep order holds temporal
// coherence, and Stats.SortOps counts the insertion-sort moves needed to
// fix it up — so a restored world must resume from the same order to
// reproduce the original run's profiles bit for bit. Membership stamps
// (mark/gen) and the unbounded list are rebuilt from scratch every pass
// and need no saving. SpatialHash and BruteForce keep only per-pass
// scratch, so they have nothing to save at all.

// SaveOrder appends the persistent sweep order (geom indices sorted
// along the current sweep axis) and returns the extended slice.
func (s *SweepAndPrune) SaveOrder(dst []int32) []int32 {
	return append(dst, s.order...)
}

// RestoreOrder replaces the persistent sweep order, re-establishing the
// temporal coherence of the run the order was saved from.
func (s *SweepAndPrune) RestoreOrder(order []int32) {
	s.order = append(s.order[:0], order...)
}
