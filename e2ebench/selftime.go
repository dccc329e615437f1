package main

import (
	"math"
	"sort"
	"time"
)

// LayerStat aggregates the spans of one name.
type LayerStat struct {
	Calls int
	// Self is the summed self time: each span's duration minus the
	// part of its interval covered by its children.
	Self time.Duration
	// P50 and P99 are nearest-rank percentiles of span durations.
	P50, P99 time.Duration
}

// selfTimes aggregates spans by name. A span's children are the spans
// naming it as parent or in their links; the union of their intervals,
// clipped to the span, is subtracted once, so children that overlap —
// concurrent fan-out — are not counted twice. Spans whose parent was
// not recorded count as roots.
func selfTimes(spans []Span) map[string]LayerStat {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	addChild := func(parent uint64, s Span) {
		if p, ok := byID[parent]; ok && parent != s.ID {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		addChild(s.Parent, s)
		for _, l := range s.Links {
			addChild(l, s)
		}
	}
	durs := map[string][]time.Duration{}
	out := map[string]LayerStat{}
	for i, s := range spans {
		d := s.End - s.Start
		self := d - covered(s.Start, s.End, children[i])
		st := out[s.Name]
		st.Calls++
		st.Self += time.Duration(self)
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], time.Duration(d))
	}
	for name, ds := range durs {
		st := out[name]
		st.P50, st.P99 = quantile(ds, 0.50), quantile(ds, 0.99)
		out[name] = st
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [start, end].
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	have := false
	for _, iv := range ivs {
		s, e := max(iv[0], start), min(iv[1], end)
		if e <= s {
			continue
		}
		if have && s <= curE {
			curE = max(curE, e)
			continue
		}
		if have {
			total += curE - curS
		}
		curS, curE, have = s, e, true
	}
	if have {
		total += curE - curS
	}
	return total
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
// ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	rank := int(math.Ceil(q*float64(len(ds)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(ds) {
		rank = len(ds) - 1
	}
	return ds[rank]
}
