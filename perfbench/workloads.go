package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mood"
	"mood/internal/clock"
	"mood/internal/core"
	"mood/internal/loadgen"
	"mood/internal/mathx"
	"mood/internal/service"
	"mood/internal/trace"
)

// sizes fixes every workload's input size, offered rate and amount of
// work. Counts marked "per 30 s" scale with --seconds; the others are
// fixed. Either way a run does a fixed amount of work and a traced pass
// repeats exactly the work of the untraced one. The benchmark runs at
// full size; its tests run the tiny one.
type sizes struct {
	sample int // uploads re-protected in process by the output check

	ingestUsers int
	ingestPops  int     // populations uploaded per pass
	ingestRate  float64 // open-loop uploads per second
	ingestOpen  float64 // open-loop seconds, per 30 s

	driftUsers, driftRounds int
	driftPops               int     // populations run per pass
	driftRate               float64 // open-loop uploads per second
	driftOpen               float64 // open-loop seconds, per 30 s

	routedUsers, routedRounds int
	routedReps                int     // fresh clusters per pass, per 30 s
	routedRate                float64 // open-loop requests per second
	routedOpen                float64
	routedReadEvery           int // every n-th request reads a dataset page

	releaseScale string
	releaseSets  int // datasets released per pass
}

// fullSize is the benchmark. The offered rates sit near half of what
// two cores sustain, so the open loops measure latency without a
// growing backlog.
var fullSize = sizes{
	sample: 24,

	ingestUsers: 400, ingestPops: 5, ingestRate: 120, ingestOpen: 3,

	driftUsers: 300, driftRounds: 8, driftPops: 4, driftRate: 150, driftOpen: 3,

	routedUsers: 300, routedRounds: 4, routedReps: 10, routedRate: 200, routedOpen: 5, routedReadEvery: 200,

	releaseScale: "bench", releaseSets: 4,
}

// tinySize keeps the benchmark's own tests fast.
var tinySize = sizes{
	sample: 4,

	ingestUsers: 8, ingestPops: 2, ingestRate: 50, ingestOpen: 1,

	driftUsers: 8, driftRounds: 2, driftPops: 2, driftRate: 50, driftOpen: 1,

	routedUsers: 8, routedRounds: 2, routedReps: 2, routedRate: 100, routedOpen: 1, routedReadEvery: 5,

	releaseScale: "tiny", releaseSets: 1,
}

// scaled is a per-30-seconds count at the run's --seconds, at least 1.
func (e *env) scaled(per30 float64) int {
	return max(1, int(per30*e.seconds/30+0.5))
}

// env is what one pass of a workload runs with.
type env struct {
	seed    uint64
	seconds float64
	size    sizes
	rec     *recorder // nil: untraced
	dir     string    // scratch directory for write-ahead logs
	workers int
	clk     clock.Clock
	origin  time.Time
	mutate  func(*core.Result)
	reqs    atomic.Uint64 // request ids of the pass
}

func (e *env) now() time.Duration { return e.clk.Since(e.origin) }

func (e *env) wrap(p service.Protector) service.Protector {
	if e.mutate == nil {
		return p
	}
	return mutatingProtector{next: p, mutate: e.mutate}
}

func (e *env) subdir(parts ...string) string {
	return filepath.Join(append([]string{e.dir}, parts...)...)
}

// passOut is one pass's measurements and outputs.
type passOut struct {
	metrics map[string]float64
	samples map[string]int // sample count behind each percentile
	digest  string
	outs    []outcome     // every client op of the measured window
	lag     []float64     // open-loop lateness, ms
	work    int           // protected chunks or traces in the window
	window  time.Duration // measured wall time
	spans   []span
	gcPause time.Duration
	alloc   uint64
	ck      checker

	attempts, failures int
}

// tally counts the window's client ops and the ones that failed or
// were refused; a malformed request correctly rejected is a success.
func (p *passOut) tally() {
	p.attempts, p.failures = len(p.outs), 0
	for _, o := range p.outs {
		if !o.ok {
			p.failures++
		}
	}
}

// workload generates its inputs once from the seed; pass runs them.
type workload interface {
	generate(seed uint64, sz sizes) error
	pass(e *env) (passOut, error)
}

// workloadNames are the workloads a run can name. BENCHMARK.json lists
// the ones the repository's benchmark runs; README.md says why the
// others are left out.
var workloadNames = []string{"drift-retrain", "routed", "ingest", "release"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest":
		return &ingest{}, nil
	case "drift-retrain":
		return &drift{}, nil
	case "release":
		return &release{}, nil
	case "routed":
		return &routed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// meter brackets one measured stretch of a pass; a pass may measure
// several. GC pauses and allocations inside the stretches are summed,
// and the resident high-water mark is read at the end of each.
type meter struct {
	e     *env
	start time.Duration
	ms    runtime.MemStats
}

func (p *passOut) meter(e *env) *meter {
	m := &meter{e: e}
	// Every stretch starts from a clean heap with its free pages
	// returned to the kernel, so the resident high-water mark measures
	// what the stretch itself needs.
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&m.ms)
	m.start = e.now()
	return m
}

func (m *meter) stop(p *passOut) {
	p.window += m.e.now() - m.start
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcPause += time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
	p.alloc += ms.TotalAlloc - m.ms.TotalAlloc
	p.metrics["peak_rss_mb"] = max(p.metrics["peak_rss_mb"], peakRSSMB())
}

// snapshot keeps a traced pass's spans.
func (p *passOut) snapshot(e *env) {
	if e.rec != nil {
		p.spans = e.rec.snapshot()
	}
}

func secs(d time.Duration) float64 { return d.Seconds() }

// chunksOf flattens a loadgen workload's rounds into upload chunks.
func chunksOf(rounds []trace.Dataset) [][]*chunk {
	out := make([][]*chunk, len(rounds))
	for i, d := range rounds {
		for _, tr := range d.Traces {
			out[i] = append(out[i], newChunk(tr))
		}
	}
	return out
}

func roundData(w loadgen.Workload) []trace.Dataset {
	out := make([]trace.Dataset, len(w.Rounds))
	for i, r := range w.Rounds {
		out[i] = r.Data
	}
	return out
}

// shuffled returns upload ops for cs in a seeded order, each keyed by
// tag and the chunk's position in cs.
func shuffled(seed uint64, tag string, cs []*chunk) []op {
	order := make([]int, len(cs))
	for i := range order {
		order[i] = i
	}
	mathx.Shuffle(mathx.DeriveRand(seed, "perfbench-order", tag), order)
	ops := make([]op, len(order))
	for i, j := range order {
		ops[i] = uploadOp(cs[j], tag+"-"+strconv.Itoa(j))
	}
	return ops
}

// cycled returns n upload ops drawn round-robin over a seeded order of
// cs, each under its own key.
func cycled(seed uint64, tag string, cs []*chunk, n int) []op {
	order := make([]*chunk, len(cs))
	copy(order, cs)
	mathx.Shuffle(mathx.DeriveRand(seed, "perfbench-order", tag), order)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = uploadOp(order[i%len(order)], tag+"-"+strconv.Itoa(i))
	}
	return ops
}

// ready polls until the deployment answers path.
func ready(e *env, cl *client, path string) error {
	var err error
	for i := 0; i < 500; i++ {
		if err = httpOK(cl, path); err == nil {
			return nil
		}
		e.clk.Sleep(2 * time.Millisecond)
	}
	return err
}

// ---------------------------------------------------------------------------
// ingest: the real engine on one WAL node, short two-day chunks. Each
// pass uploads several independent populations, each to its own
// freshly booted node, so that the work measured is large enough for
// its cost to be steady from seed to seed.

type population struct {
	bg     []trace.Trace
	chunks []*chunk
}

type ingest struct{ pops []population }

func (w *ingest) generate(seed uint64, sz sizes) error {
	for k := 0; k < sz.ingestPops; k++ {
		lw, err := loadgen.Build(loadgen.Config{Seed: mathx.DeriveSeed(seed, "ingest", strconv.Itoa(k)),
			Users: sz.ingestUsers, Rounds: 1})
		if err != nil {
			return err
		}
		w.pops = append(w.pops, population{bg: lw.Background.Traces, chunks: chunksOf(roundData(lw))[0]})
	}
	return nil
}

func (w *ingest) pass(e *env) (passOut, error) {
	p := passOut{metrics: map[string]float64{}, samples: map[string]int{}}
	var setups, passTimes []float64
	total := 0
	for k, pop := range w.pops {
		seed := mathx.DeriveSeed(e.seed, "ingest", strconv.Itoa(k))
		debug.FreeOSMemory() // each set-up starts from a clean heap
		t0 := e.now()
		kit, err := newEngine(e.rec, pop.bg, seed)
		if err != nil {
			return passOut{}, err
		}
		n, err := startNode(nodeSpec{dir: e.subdir("ingest", strconv.Itoa(k)), protector: e.wrap(kit.protector),
			retrainer: kit.retrainer, rec: e.rec})
		if err != nil {
			return passOut{}, err
		}
		dep := &deployment{url: n.url, nodes: []*node{n}}
		cl := newClient(e, dep.url, e.workers, true)
		err = ready(e, cl, "/healthz")
		setups = append(setups, secs(e.now()-t0))
		if err != nil {
			dep.close() //nolint:errcheck // already failing
			return passOut{}, err
		}

		m := p.meter(e)
		t1 := e.now()
		closed := cl.closedLoop(shuffled(seed, "c", pop.chunks))
		passTimes = append(passTimes, secs(e.now()-t1))
		var open []outcome
		if k == len(w.pops)-1 {
			nOpen := e.scaled(e.size.ingestRate * e.size.ingestOpen)
			open = cl.openLoop(cycled(seed, "o", pop.chunks, nOpen), e.size.ingestRate)
			latencyMetrics(&p, "upload", open, opUpload)
			p.lag = lags(open)
		}
		m.stop(&p)
		total += len(pop.chunks)
		outs := append(closed, open...)
		p.outs = append(p.outs, outs...)

		// Each population's uploads are checked against an engine
		// trained separately, untraced, on the same background.
		ref, err := newEngine(nil, pop.bg, seed)
		if err != nil {
			dep.close() //nolint:errcheck // already failing
			return passOut{}, err
		}
		led := newLedger()
		checkOutcomes(&p.ck, &led, outs)
		checkSample(&p.ck, outs, seed, e.size.sample, ref.protect)
		st := checkStats(&p.ck, cl.svc, led)
		p.metrics["records_published"] += float64(st.RecordsPublished)
		p.metrics["records_quarantined"] += float64(st.RecordsQuarantined)
		cl.close()
		if err := dep.close(); err != nil {
			return passOut{}, err
		}
	}
	p.tally()
	p.work = len(p.outs)
	var sum float64
	for _, t := range passTimes {
		sum += t
	}
	p.metrics["setup_s"] = median(setups)
	p.metrics["complete_s"] = sum
	p.metrics["chunks_per_s"] = float64(total) / sum
	p.digest = digestResponses(p.outs)
	p.snapshot(e)
	return p, nil
}

// ---------------------------------------------------------------------------
// drift-retrain: drifting users, a retrain + re-audit barrier after
// every round. Each pass runs several independent populations, each on
// its own freshly booted node, so that the measured work is large
// enough for its cost to be steady from seed to seed.

type driftPop struct {
	bg     []trace.Trace
	rounds [][]*chunk
}

type drift struct{ pops []driftPop }

func (w *drift) generate(seed uint64, sz sizes) error {
	for k := 0; k < sz.driftPops; k++ {
		lw, err := loadgen.Build(loadgen.Config{Seed: mathx.DeriveSeed(seed, "drift", strconv.Itoa(k)),
			Users: sz.driftUsers, Rounds: sz.driftRounds, Drift: 0.6})
		if err != nil {
			return err
		}
		w.pops = append(w.pops, driftPop{bg: lw.Background.Traces, rounds: chunksOf(roundData(lw))})
	}
	return nil
}

// roundOps shuffles a round's uploads and mixes in one malformed
// request per twenty uploads (at least one).
func (pop driftPop) roundOps(seed uint64, r int) []op {
	tag := "r" + strconv.Itoa(r)
	ops := shuffled(seed, tag, pop.rounds[r])
	rng := mathx.DeriveRand(seed, "perfbench-invalid", tag)
	n := len(ops)/20 + 1
	for i := 0; i < n; i++ {
		at := rng.Intn(len(ops) + 1)
		bad := invalidOp(ops[rng.Intn(len(ops))].user, i)
		ops = append(ops[:at], append([]op{bad}, ops[at:]...)...)
	}
	return ops
}

func (w *drift) pass(e *env) (passOut, error) {
	p := passOut{metrics: map[string]float64{}, samples: map[string]int{}}
	var setups []float64
	var uploading, barriers time.Duration
	var open []outcome
	for k, pop := range w.pops {
		seed := mathx.DeriveSeed(e.seed, "drift", strconv.Itoa(k))
		debug.FreeOSMemory() // each set-up starts from a clean heap
		t0 := e.now()
		kit, err := newEngine(e.rec, pop.bg, seed)
		if err != nil {
			return passOut{}, err
		}
		n, err := startNode(nodeSpec{dir: e.subdir("drift", strconv.Itoa(k)), protector: e.wrap(kit.protector),
			retrainer: kit.retrainer, rec: e.rec})
		if err != nil {
			return passOut{}, err
		}
		dep := &deployment{url: n.url, nodes: []*node{n}}
		cl := newClient(e, dep.url, e.workers, true)
		err = ready(e, cl, "/healthz")
		setups = append(setups, secs(e.now()-t0))
		if err != nil {
			dep.close() //nolint:errcheck // already failing
			return passOut{}, err
		}

		// Every round is uploaded in a closed loop, then the barrier
		// retrains. The last population's last round adds an open-loop
		// stretch before its barrier, for upload latency; it is not
		// part of complete_s.
		var outs []outcome
		firstRound := 0
		m := p.meter(e)
		for r := range pop.rounds {
			t1 := e.now()
			round := cl.closedLoop(pop.roundOps(seed, r))
			uploading += e.now() - t1
			if k == len(w.pops)-1 && r == len(pop.rounds)-1 {
				nOpen := e.scaled(e.size.driftRate * e.size.driftOpen)
				open = cl.openLoop(cycled(seed, "o", pop.rounds[r], nOpen), e.size.driftRate)
				round = append(round, open...)
			}
			barrier := outcome{op: &op{kind: opRetrain}}
			cl.do(&barrier)
			barrier.due = barrier.sent
			barriers += barrier.done - barrier.sent
			outs = append(append(outs, round...), barrier)
			if r == 0 {
				firstRound = len(round)
			}
		}
		m.stop(&p)
		p.outs = append(p.outs, outs...)

		led := newLedger()
		checkOutcomes(&p.ck, &led, outs)
		// The first round ran on the boot-time engine: re-protect a
		// sample of it with an engine trained separately, untraced, on
		// the same background.
		ref, err := newEngine(nil, pop.bg, seed)
		if err != nil {
			dep.close() //nolint:errcheck // already failing
			return passOut{}, err
		}
		checkSample(&p.ck, outs[:firstRound], seed, e.size.sample/len(w.pops)+1, ref.protect)
		st := checkStats(&p.ck, cl.svc, led)
		p.metrics["records_published"] += float64(st.RecordsPublished)
		p.metrics["records_quarantined"] += float64(st.RecordsQuarantined)
		// Every barrier quarantined what its retrained attacks
		// re-identify, so one more retrain over the same history must
		// find nothing.
		if rr, err := cl.svc.Retrain(); err != nil {
			p.ck.failf("population %d: final retrain: %v", k, err)
		} else if rr.Quarantined != 0 {
			p.ck.failf("population %d: a repeated retrain over the same history quarantined %d fragments", k, rr.Quarantined)
		}
		cl.close()
		if err := dep.close(); err != nil {
			return passOut{}, err
		}
	}
	p.tally()
	for _, o := range p.outs {
		if o.op.kind == opUpload {
			p.work++
		}
	}
	p.metrics["setup_s"] = median(setups)
	p.metrics["complete_s"] = secs(uploading + barriers)
	p.metrics["chunks_per_s"] = float64(p.work-len(open)) / secs(uploading)
	p.metrics["retrain_s"] = secs(barriers)
	latencyMetrics(&p, "upload", open, opUpload)
	p.lag = lags(open)
	p.digest = digestResponses(p.outs)
	p.snapshot(e)
	return p, nil
}

// ---------------------------------------------------------------------------
// release: offline Pipeline.ProtectDataset over the test half of the
// cabspotting-like dataset, for several datasets drawn from the seed.

type releaseSet struct{ train, test trace.Dataset }

type release struct{ sets []releaseSet }

func (w *release) generate(seed uint64, sz sizes) error {
	for k := 0; k < sz.releaseSets; k++ {
		d, err := mood.GenerateDataset("cabspotting", sz.releaseScale, mathx.DeriveSeed(seed, "release", strconv.Itoa(k)))
		if err != nil {
			return err
		}
		train, test := mood.SplitTrainTest(d, 0.5, 20)
		if test.NumUsers() == 0 {
			return fmt.Errorf("release: empty test half")
		}
		w.sets = append(w.sets, releaseSet{train: train, test: test})
	}
	return nil
}

func (w *release) pass(e *env) (passOut, error) {
	p := passOut{metrics: map[string]float64{}, samples: map[string]int{}}
	var setups, times []float64
	var all []core.Result
	traces := 0
	for k, set := range w.sets {
		seed := mathx.DeriveSeed(e.seed, "release", strconv.Itoa(k))
		debug.FreeOSMemory() // each set-up starts from a clean heap
		t0 := e.now()
		kit, err := newEngine(e.rec, set.train.Traces, seed)
		if err != nil {
			return passOut{}, err
		}
		setups = append(setups, secs(e.now()-t0))

		m := p.meter(e)
		t1 := e.now()
		var results []core.Result
		if e.rec == nil {
			results, err = kit.protectDataset(set.test)
		} else {
			results, err = protectEach(set.test, kit.protector, e.workers)
		}
		dt := e.now() - t1
		m.stop(&p)
		if err != nil {
			return passOut{}, err
		}
		times = append(times, secs(dt))
		traces += len(set.test.Traces)
		p.outs = append(p.outs, outcome{op: &op{kind: opUpload}, ok: true, due: t1, sent: t1, done: t1 + dt})
		if e.mutate != nil {
			for i := range results {
				e.mutate(&results[i])
			}
		}
		all = append(all, results...)

		// Checked against an engine trained separately, untraced.
		ref, err := newEngine(nil, set.train.Traces, seed)
		if err != nil {
			return passOut{}, err
		}
		checkRelease(&p.ck, set.test, results, ref.auditor)
		idx := make([]int, len(results))
		for i := range idx {
			idx[i] = i
		}
		mathx.Shuffle(mathx.DeriveRand(seed, "perfbench-sample"), idx)
		for _, i := range idx[:min(len(idx), e.size.sample/len(w.sets)+1)] {
			want, err := ref.protect(set.test.Traces[i])
			if err != nil {
				p.ck.failf("in-process protect of %q: %v", set.test.Traces[i].User, err)
				continue
			}
			if digestResults([]core.Result{want}) != digestResults(results[i:i+1]) {
				p.ck.failf("user %q: released pieces differ from an in-process Protect", want.User)
			}
		}
	}
	var sum float64
	for _, t := range times {
		sum += t
	}
	p.work, p.attempts = traces, traces
	p.metrics["setup_s"] = median(setups)
	p.metrics["complete_s"] = sum
	p.metrics["chunks_per_s"] = float64(traces) / sum
	p.digest = digestResults(all)
	if want, ok := goldenFor(e.seed); ok && e.size == fullSize && want != p.digest {
		p.ck.failf("release digest %s, recorded for seed %d: %s", p.digest, e.seed, want)
	}
	p.snapshot(e)
	return p, nil
}

// protectEach is ProtectDataset's shape — workers callers over the
// traces, results in input order — run through the wrapped Protector.
func protectEach(d trace.Dataset, p service.Protector, workers int) ([]core.Result, error) {
	results := make([]core.Result, len(d.Traces))
	errs := make([]error, len(d.Traces))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.Traces) {
					return
				}
				results[i], errs[i] = p.Protect(d.Traces[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("protecting %s: %w", d.Traces[i].User, err)
		}
	}
	return results, nil
}

// ---------------------------------------------------------------------------
// routed: the echo engine on two WAL nodes behind the router, uploads
// beside dataset page and stats reads.

type routed struct {
	chunks []*chunk
}

func (w *routed) generate(seed uint64, sz sizes) error {
	lw, err := loadgen.Build(loadgen.Config{Seed: seed, Users: sz.routedUsers, Rounds: sz.routedRounds})
	if err != nil {
		return err
	}
	for _, cs := range chunksOf(roundData(lw)) {
		w.chunks = append(w.chunks, cs...)
	}
	return nil
}

// withReads puts a dataset page read at every n-th position and a
// stats read at every 5n-th.
func withReads(ops []op, n int) []op {
	out := make([]op, 0, len(ops)+len(ops)/(n-1)+1)
	for _, o := range ops {
		switch k := len(out) + 1; {
		case k%(5*n) == 0:
			out = append(out, op{kind: opStats})
		case k%n == 0:
			out = append(out, op{kind: opPage})
		}
		out = append(out, o)
	}
	return out
}

func (w *routed) pass(e *env) (passOut, error) {
	echo := loadgen.EchoProtector{Seed: e.seed}
	boot := func(dir string, rec *recorder) (*deployment, error) {
		d, err := startCluster(2, dir, func(id, dir string) nodeSpec {
			var p service.Protector = echo
			if rec != nil {
				p = tracedProtector{rec: rec, next: echo}
			}
			return nodeSpec{id: id, dir: dir, protector: e.wrap(p), rec: rec}
		}, rec)
		if err != nil {
			return nil, err
		}
		probe := newClient(e, d.url, 1, false)
		defer probe.close()
		if err := ready(e, probe, "/v2/stats"); err != nil {
			d.close() //nolint:errcheck // already failing
			return nil, err
		}
		return d, nil
	}

	// Each repetition boots a fresh cluster from the same seeded
	// history, so every set-up recovers real state and every closed
	// pass sends the same requests, in the same order, to the same
	// published dataset: one untimed, untraced pass of the chunk set is
	// uploaded and the cluster shut down first.
	p := passOut{metrics: map[string]float64{}, samples: map[string]int{}}
	var setups, passTimes []float64
	var open []outcome
	reps := e.scaled(float64(e.size.routedReps))
	for k := 0; k < reps; k++ {
		dir := e.subdir("routed", strconv.Itoa(k))
		d0, err := boot(dir, nil)
		if err != nil {
			return passOut{}, err
		}
		cl0 := newClient(e, d0.url, e.workers, false)
		history := cl0.closedLoop(shuffled(e.seed, "h", w.chunks))
		cl0.close()
		if err := d0.close(); err != nil {
			return passOut{}, err
		}

		debug.FreeOSMemory() // each set-up starts from a clean heap
		t0 := e.now()
		dep, err := boot(dir, e.rec)
		if err != nil {
			return passOut{}, err
		}
		setups = append(setups, secs(e.now()-t0))
		cl := newClient(e, dep.url, e.workers, true)

		m := p.meter(e)
		t1 := e.now()
		outs := cl.closedLoop(withReads(shuffled(e.seed, "c", w.chunks), e.size.routedReadEvery))
		passTimes = append(passTimes, secs(e.now()-t1))
		if k == reps-1 {
			nOpen := e.scaled(e.size.routedRate * e.size.routedOpen)
			nUploads := nOpen - nOpen/e.size.routedReadEvery
			open = cl.openLoop(withReads(cycled(e.seed, "o", w.chunks, nUploads), e.size.routedReadEvery), e.size.routedRate)
			outs = append(outs, open...)
		}
		m.stop(&p)
		p.outs = append(p.outs, outs...)

		led := newLedger()
		checkOutcomes(&p.ck, &led, history)
		checkOutcomes(&p.ck, &led, outs)
		checkSample(&p.ck, outs, mathx.DeriveSeed(e.seed, strconv.Itoa(k)), e.size.sample/reps+1, echo.Protect)
		st := checkStats(&p.ck, cl.svc, led)
		p.metrics["records_published"] += float64(st.RecordsPublished)
		p.metrics["records_quarantined"] += float64(st.RecordsQuarantined)
		if n := dep.misroutes(); n != 0 {
			p.ck.failf("repetition %d: misroute tripwire fired %d times", k, n)
		}
		cl.close()
		if err := dep.close(); err != nil {
			return passOut{}, err
		}
	}
	p.tally()
	for _, o := range p.outs {
		if o.op.kind == opUpload {
			p.work++
		}
	}
	// The repetitions do the same work from the same state, so their
	// median is what one pass takes, with the passes that a busy host
	// slowed left out.
	p.metrics["setup_s"] = median(setups)
	p.metrics["complete_s"] = median(passTimes)
	p.metrics["chunks_per_s"] = float64(len(w.chunks)) / median(passTimes)
	latencyMetrics(&p, "upload", open, opUpload)
	latencyMetrics(&p, "page", open, opPage)
	p.lag = lags(open)
	p.digest = digestResponses(p.outs)
	p.snapshot(e)
	return p, nil
}
