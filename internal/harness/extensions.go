package harness

// extensionFigure builds a hashmap-workload figure over extension schemes.
func extensionFigure(id, title string, schemes []string, buckets, items int64, wpcts []int, baseOps int) *FigureSpec {
	f := &FigureSpec{
		ID:        id,
		Title:     title,
		Schemes:   schemes,
		Threads:   []int{2, 8, 32, 80},
		WritePcts: wpcts,
		TimeLabel: "execution time (s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		p := HashmapParams{
			Buckets: buckets, Items: items, WritePct: writePct,
			Threads: threads, TotalOps: int(float64(baseOps) * scale),
			Seed: uint64(20000 + threads*13 + writePct),
		}
		return RunHashmap(ctx, p, SchemeFactory(scheme))
	}
	return f
}

// ExtensionFigures returns the beyond-the-paper experiments:
//
//   - ext-prwl: the comparison the paper could not run on POWER8 — the
//     passive reader-writer lock (TSO-dependent) against RW-LE, on the
//     low-contention hashmap.
//   - ext-scm: software-assisted conflict management for HLE (related
//     work [2]) on the high-contention hashmap, against plain HLE and
//     RW-LE.
//   - ext-adaptive: the self-tuning HTM-budget controller against the
//     fixed OPT and PES policies, on both a capacity-bound and a
//     capacity-light workload.
//   - ext-early: the tcheck-based early-abort of doomed quiescence.
func ExtensionFigures() []*FigureSpec {
	return []*FigureSpec{
		extensionFigure("ext-prwl",
			"Extension: PRWL vs RW-LE (the TSO-bound comparison the paper skipped)",
			[]string{"RW-LE_OPT", "PRWL", "RWL", "BRLock"},
			lowContentionBuckets, 50, []int{1, 10, 50}, 16000),
		extensionFigure("ext-scm",
			"Extension: software conflict management for HLE (high contention)",
			[]string{"RW-LE_OPT", "HLE", "HLE-SCM", "SGL"},
			1, 50, []int{10, 50, 90}, 16000),
		extensionFigure("ext-adaptive",
			"Extension: self-tuning HTM budget vs fixed OPT/PES (capacity-bound workload)",
			[]string{"RW-LE_OPT", "RW-LE_PES", "RW-LE_ADAPT"},
			1, 200, []int{10, 50, 90}, 8000),
		extensionFigure("ext-early",
			"Extension: tcheck early-abort of doomed quiescence (high contention)",
			[]string{"RW-LE_OPT", "RW-LE_EARLY"},
			1, 200, []int{1, 10, 50}, 8000),
		rcuFigure(),
	}
}
