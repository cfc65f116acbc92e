package main

import (
	"math"
	"sort"

	"mood/internal/service"
)

// quantile is the linearly interpolated q-quantile of xs (NaN when
// empty). +Inf entries — failed requests — sort last, and a quantile
// that reaches into them is +Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d float64) float64 { return d * 1e3 }

// latencyMetrics reports the p50 and p99 of kind's ops in outs, each
// timed from its due time to its answer. A failed request counts as
// infinitely late, so it always misses a latency limit.
func latencyMetrics(p *passOut, prefix string, outs []outcome, kind opKind) {
	var lat []float64
	for _, o := range outs {
		if o.op.kind != kind {
			continue
		}
		if !o.ok {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(secs(o.latency())))
	}
	p.metrics[prefix+"_p50_ms"] = quantile(lat, 0.5)
	p.metrics[prefix+"_p99_ms"] = quantile(lat, 0.99)
	p.samples[prefix] = len(lat)
}

// lags is how late each open-loop request went out, in ms.
func lags(outs []outcome) []float64 {
	out := make([]float64, 0, len(outs))
	for _, o := range outs {
		out = append(out, ms(secs(o.sent-o.due)))
	}
	return out
}

// statsMetrics reports the published and quarantined record counts.
// Quarantine counts obfuscated records, publication source records, so
// the two are reported side by side and not compared.
func statsMetrics(p *passOut, st service.ServerStats) {
	p.metrics["records_published"] = float64(st.RecordsPublished)
	p.metrics["records_quarantined"] = float64(st.RecordsQuarantined)
}
