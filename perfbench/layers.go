package main

import "slices"

// layerMetrics derives the per-layer metrics of a traced pass from its
// spans and the counters the wrappers read off the interfaces. Engine
// times are busy milliseconds per protected chunk (per trace on
// release); counts are totals over the pass.
func layerMetrics(p *passOut, rec *recorder) map[string]float64 {
	spans := p.spans
	m := map[string]float64{}
	for _, spec := range perLayer {
		m[spec.name] = 0
	}
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	selfTime := func(i int) int64 {
		iv := make([]interval, 0, len(children[i]))
		for _, c := range children[i] {
			iv = append(iv, interval{spans[c].Start, spans[c].End})
		}
		return spans[i].dur() - unionLen(iv)
	}

	busy := map[string]int64{}
	count := map[string]int{}
	var protectSelf int64
	var appendDur, queueWait, syncDur []float64
	uploadSpan := map[uint64]int{} // request → innermost service.upload span
	routerSpan := map[uint64]int{} // request → cluster.upload span
	protectOf := map[uint64]int{}
	appendOf := map[uint64]int64{}
	for i, s := range spans {
		busy[s.Name] += s.dur()
		count[s.Name]++
		switch s.Name {
		case "core.protect":
			protectSelf += selfTime(i)
			if s.Req != 0 {
				protectOf[s.Req] = i
			}
		case "store.append":
			appendDur = append(appendDur, nsMs(s.dur()))
			if s.Req != 0 {
				appendOf[s.Req] += s.dur()
			}
		case "store.fsync":
			syncDur = append(syncDur, nsMs(s.dur()))
		case "service.upload":
			uploadSpan[s.Req] = i
		case "cluster.upload":
			routerSpan[s.Req] = i
		}
	}

	chunks := float64(count["core.protect"])
	perChunk := func(name string) float64 {
		if chunks == 0 {
			return 0
		}
		return nsMs(busy[name]) / chunks
	}
	m["core.protect_ms.busy"] = perChunk("core.protect")
	if chunks > 0 {
		m["core.protect_ms.self"] = nsMs(protectSelf) / chunks
	}
	m["lppm.obfuscate_ms.hmc"] = perChunk("lppm.hmc")
	m["lppm.obfuscate_ms.geoi"] = perChunk("lppm.geoi")
	m["lppm.obfuscate_ms.trl"] = perChunk("lppm.trl")
	m["lppm.calls"] = float64(count["lppm.hmc"] + count["lppm.geoi"] + count["lppm.trl"])
	m["attack.identify_ms.ap"] = perChunk("attack.ap")
	m["attack.identify_ms.poi"] = perChunk("attack.poi")
	m["attack.identify_ms.pit"] = perChunk("attack.pit")
	m["metrics.std_ms"] = perChunk("metrics.std")

	rec.mu.Lock()
	m["core.candidates"] = float64(rec.candidates)
	m["core.attack_calls"] = float64(rec.attackCalls)
	m["core.splits"] = float64(rec.splits)
	m["core.pieces_per_candidate"] = ratio(rec.pieces, rec.candidates)
	m["attack.identify_calls"] = float64(rec.identifyCalls)
	m["attack.hit_ratio"] = ratio(rec.identifyHits, rec.identifyCalls)
	m["attack.audit_pairs"] = float64(rec.auditPairs)
	m["attack.quarantine_ratio"] = ratio(rec.auditHits, rec.auditPairs)
	m["store.appends"] = float64(rec.appends)
	m["store.records_per_append"] = ratio(rec.appendRecords, rec.appends)
	m["store.bytes"] = float64(rec.bytes)
	rec.mu.Unlock()

	if n := count["attack.train"]; n > 0 {
		m["attack.train_ms"] = nsMs(busy["attack.train"]) / float64(n)
		m["attack.audit_ms"] = nsMs(busy["attack.audit"]) / float64(n)
	}
	if len(appendDur) > 0 {
		m["store.append_ms.p50"] = quantile(appendDur, 0.5)
		m["store.append_ms.p99"] = quantile(appendDur, 0.99)
	}
	m["store.fsyncs"] = float64(len(syncDur))
	if len(syncDur) > 0 {
		m["store.fsync_ms"] = nsMs(busy["store.fsync"]) / float64(len(syncDur))
	}
	if n := count["store.recover"]; n > 0 {
		m["store.recover_ms"] = nsMs(busy["store.recover"]) / float64(n)
	}

	// Service tier: queue wait and self time per upload request.
	var self []float64
	for _, req := range sortedReqs(uploadSpan) {
		u := uploadSpan[req]
		pi, ok := protectOf[req]
		if !ok {
			continue
		}
		queueWait = append(queueWait, nsMs(spans[pi].Start-spans[u].Start))
		self = append(self, nsMs(spans[u].dur()-spans[pi].dur()-appendOf[req]))
	}
	if len(queueWait) > 0 {
		m["service.queue_wait_ms.p50"] = quantile(queueWait, 0.5)
		m["service.queue_wait_ms.p99"] = quantile(queueWait, 0.99)
		m["service.self_ms"] = mean(self)
	}
	for _, o := range p.outs {
		if o.status == 503 || o.status == 429 {
			m["service.shed"]++
		}
	}

	// Cluster tier: the router hop on uploads, the gather on reads.
	var hops []float64
	for _, req := range sortedReqs(routerSpan) {
		r := routerSpan[req]
		if u, ok := uploadSpan[req]; ok {
			hops = append(hops, nsMs(spans[r].dur()-spans[u].dur()))
		}
	}
	if len(hops) > 0 {
		m["cluster.hop_ms"] = mean(hops)
	}
	var gathers []float64
	for _, r := range spans {
		if r.Name != "cluster.dataset" {
			continue
		}
		var slowest int64 = -1
		for _, s := range spans {
			if s.Name == "service.dataset" && s.Start >= r.Start && s.End <= r.End && s.dur() > slowest {
				slowest = s.dur()
			}
		}
		if slowest >= 0 {
			gathers = append(gathers, nsMs(r.dur()-slowest))
		}
	}
	if len(gathers) > 0 {
		m["cluster.gather_ms"] = mean(gathers)
	}

	m["runtime.gc_pause_ms"] = nsMs(int64(p.gcPause))
	if p.work > 0 {
		m["runtime.alloc_bytes_per_chunk"] = float64(p.alloc) / float64(p.work)
	}
	if len(p.lag) > 0 {
		m["gen.lag_ms"] = quantile(p.lag, 0.99)
	}
	m["trace.coverage"] = coverage(p)
	return m
}

// coverage is the share of the client-observed time of the pass's
// requests that falls under a span of the same request. For the
// offline release, it is the share of the window under a span.
func coverage(p *passOut) float64 {
	byReq := map[uint64][]interval{} // only looked up, never ranged
	var all []interval
	for _, s := range p.spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], interval{s.Start, s.End})
		}
		all = append(all, interval{s.Start, s.End})
	}
	var covered, total int64
	for _, o := range p.outs {
		lo, hi := int64(o.sent), int64(o.done)
		if o.req == 0 {
			// An offline release: no requests, one window per repetition.
			total += hi - lo
			covered += unionLen(clip(all, lo, hi))
			continue
		}
		total += hi - lo
		covered += unionLen(clip(byReq[o.req], lo, hi))
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

func clip(iv []interval, lo, hi int64) []interval {
	out := make([]interval, 0, len(iv))
	for _, x := range iv {
		x.lo, x.hi = max(x.lo, lo), min(x.hi, hi)
		if x.hi > x.lo {
			out = append(out, x)
		}
	}
	return out
}

func nsMs(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedReqs returns a map's request ids in order, so sums over them
// are reproducible to the last bit.
func sortedReqs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for req := range m {
		out = append(out, req)
	}
	slices.Sort(out)
	return out
}
