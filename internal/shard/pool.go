package shard

import "kgexplore/internal/exec"

// Allocation is one stratum's share of a proportionally allocated run: the
// walk cap of each of its walkers (0 for none) and their batch size.
type Allocation struct {
	MaxWalks int64
	Batch    int
}

// Allocate splits a run across strata in proportion to their root
// cardinalities — the proportional design of stratified sampling. With a
// walk cap, stratum k gets ⌈maxWalks·card_k/Σcard⌉ walks (at least one per
// non-empty stratum, so none is silently dropped), split over its wps
// walkers. Batch sizes scale by the same shares, so in budget-driven runs
// strata advance at cardinality-proportional rates between deadline
// checks. Empty strata get the zero Allocation; batch <= 0 selects
// exec.DefaultBatch. RunScatter, the distributed coordinator and its
// workers all allocate through it, so equal seeds yield equal walks.
func Allocate(cards []int, maxWalks int64, batch, wps int) []Allocation {
	if batch <= 0 {
		batch = exec.DefaultBatch
	}
	total, active := 0, 0
	for _, c := range cards {
		total += c
		if c > 0 {
			active++
		}
	}
	out := make([]Allocation, len(cards))
	for k, c := range cards {
		if c == 0 {
			continue
		}
		share := float64(c) / float64(total)
		if maxWalks > 0 {
			quota := max(1, int64(float64(maxWalks)*share+0.5))
			out[k].MaxWalks = max(1, quota/int64(wps))
		}
		out[k].Batch = min(8192, max(1, int(float64(batch)*share*float64(active))))
	}
	return out
}
